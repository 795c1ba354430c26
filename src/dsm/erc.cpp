#include "dsm/erc.hpp"

#include "common/assert.hpp"
#include "dsm/flush_scratch.hpp"

namespace hyp::dsm {

// Wire formats:
//   fetch:    req { u32 page }            reply { page bytes }
//   release:  req { u32 run_count, runs } reply {} (after all sharer acks)
//             run = { u64 gva, u32 len, bytes }
//   update:   one-way { u64 release_id, u32 run_count, runs }
//   ack:      one-way { u64 release_id }

ErcDsm::ErcDsm(cluster::Cluster* cluster, std::size_t region_bytes)
    : cluster_(cluster),
      layout_(region_bytes, cluster->params().page_bytes, cluster->node_count()),
      sharers_(layout_.total_pages()) {
  const int n = cluster->node_count();
  nodes_.reserve(static_cast<std::size_t>(n));
  for (NodeId i = 0; i < n; ++i) {
    nodes_.push_back(std::make_unique<NodeDsm>(&layout_, i));
    cluster_->node(i).register_service(
        svc::kErcFetch, [this, i](cluster::Incoming& in) { handle_fetch(in, i); });
    cluster_->node(i).register_service(
        svc::kErcRelease, [this, i](cluster::Incoming& in) { handle_release(in, i); });
    cluster_->node(i).register_service(
        svc::kErcUpdate, [this, i](cluster::Incoming& in) { handle_update(in, i); });
    cluster_->node(i).register_service(
        svc::kErcUpdateAck, [this, i](cluster::Incoming& in) { handle_update_ack(in, i); });
  }
}

Gva ErcDsm::alloc(NodeId node, std::size_t bytes, std::size_t align) {
  return nodes_[static_cast<std::size_t>(node)]->alloc(bytes, align);
}

std::unique_ptr<ErcThreadCtx> ErcDsm::make_thread(NodeId node) {
  auto t = std::make_unique<ErcThreadCtx>(&cluster_->params().cpu);
  t->dsm = this;
  t->node = node;
  t->base = nodes_[static_cast<std::size_t>(node)]->arena();
  t->stats = &cluster_->node(node).stats();
  t->check_cost = cluster_->params().cpu.check_cost();
  t->clock.bind_cpu(&cluster_->node(node).app_cpu());
  return t;
}

void ErcDsm::fetch(ErcThreadCtx& t, PageId p) {
  NodeDsm& nd = node_dsm(t.node);
  HYP_CHECK(!nd.is_home(p));
  auto* eng = sim::Engine::current();
  sim::Fiber* self = eng->current_fiber();
  if (!nd.begin_fetch(p, self)) {
    nd.wait_fetch(p, self);
    return;
  }
  const NodeId home = layout_.home_of_page(p);
  t.clock.flush();
  Buffer req;
  req.put<std::uint32_t>(p);
  Buffer reply = cluster_->call(t.node, home, svc::kErcFetch, std::move(req));
  HYP_CHECK(reply.size() == layout_.page_bytes());
  std::memcpy(nd.page_ptr(p), reply.data(), reply.size());
  t.clock.charge(cluster_->params().cpu.copy_cost(reply.size()));
  nd.mark_cached(p, /*with_twin=*/true);
  t.clock.charge(cluster_->params().cpu.copy_cost(reply.size()));  // twin snapshot
  t.clock.flush();
  t.stats->add(Counter::kPageFetches);
  t.stats->add(Counter::kPageFetchBytes, reply.size());
  nd.finish_fetch(p);
}

void ErcDsm::handle_fetch(cluster::Incoming& in, NodeId self) {
  const auto p = in.reader.get<std::uint32_t>();
  HYP_CHECK_MSG(layout_.home_of_page(p) == self, "erc fetch reached a non-home node");
  sharers_[p].insert(in.from);
  const Time done_at = cluster_->node(self).extend_service(
      cluster_->params().cpu.copy_cost(layout_.page_bytes()));
  Buffer out;
  out.put_bytes(node_dsm(self).page_ptr(p), layout_.page_bytes());
  cluster_->reply(in, std::move(out), done_at - cluster_->engine().now());
}

void ErcDsm::on_release(ErcThreadCtx& t) {
  t.clock.flush();
  const auto& cpu = cluster_->params().cpu;
  const std::size_t page_bytes = layout_.page_bytes();
  NodeDsm& nd = node_dsm(t.node);

  // Collect diffs per home, snapshotting bytes and refreshing twins before
  // any yield (same discipline as the Java protocols).
  struct Run {
    Gva addr;
    std::vector<std::byte> bytes;
  };
  std::map<NodeId, std::vector<Run>> by_home;
  for (PageId p : nd.cached_pages()) {
    if (!nd.has_twin(p)) continue;
    t.clock.charge(cpu.diff_cost(page_bytes));
    const std::byte* cur = nd.page_ptr(p);
    const std::size_t modified =
        scan_diff_runs(cur, nd.twin(p), page_bytes / 8, [&](std::size_t b, std::size_t e) {
          by_home[layout_.home_of_page(p)].push_back(
              Run{layout_.page_base(p) + b * 8, {cur + b * 8, cur + e * 8}});
        });
    t.stats->add(Counter::kDiffWords, modified);
    if (modified != 0) nd.refresh_twin(p);
  }
  t.clock.flush();

  for (auto& [home, runs] : by_home) {
    Buffer msg;
    msg.put<std::uint32_t>(static_cast<std::uint32_t>(runs.size()));
    for (const Run& r : runs) {
      msg.put<std::uint64_t>(r.addr);
      msg.put<std::uint32_t>(static_cast<std::uint32_t>(r.bytes.size()));
      msg.put_bytes(r.bytes.data(), r.bytes.size());
    }
    t.stats->add(Counter::kUpdatesSent);
    t.stats->add(Counter::kUpdateBytes, msg.size());
    // The home replies only after every other sharer acked the forwarded
    // update — that is the "eager" in eager release consistency.
    Buffer ack = cluster_->call(t.node, home, svc::kErcRelease, std::move(msg));
    HYP_CHECK(ack.empty());
  }

  // Writes to our own home pages: the master copy is already current, but
  // every sharer's replica must be patched. We are the home, so push the
  // updates directly (one eager round per sharer).
  if (!t.home_log.empty()) {
    // Last-writer-wins dedup, preserving first-touch order.
    std::vector<WriteLogEntry> entries;
    std::map<Gva, std::size_t> position;
    for (const auto& e : t.home_log.entries()) {
      auto it = position.find(e.addr);
      if (it == position.end()) {
        position[e.addr] = entries.size();
        entries.push_back(e);
      } else {
        entries[it->second] = e;
      }
    }
    NodeSet targets;
    for (const auto& e : entries) {
      for (NodeId sharer : sharers_[layout_.page_of(e.addr)]) {
        if (sharer != t.node) targets.insert(sharer);
      }
    }
    for (NodeId target : targets) {
      Buffer update;
      update.put<std::uint64_t>(0);  // direct (call-style) update: no release id
      update.put<std::uint32_t>(static_cast<std::uint32_t>(entries.size()));
      for (const auto& e : entries) {
        update.put<std::uint64_t>(e.addr);
        update.put<std::uint32_t>(e.size);
        update.put_bytes(&e.value, e.size);
      }
      t.stats->add(Counter::kUpdatesSent);
      t.stats->add(Counter::kUpdateBytes, update.size());
      Buffer ack = cluster_->call(t.node, target, svc::kErcUpdate, std::move(update));
      HYP_CHECK(ack.empty());
    }
    t.home_log.clear();
  }
}

void ErcDsm::handle_release(cluster::Incoming& in, NodeId self) {
  NodeDsm& nd = node_dsm(self);
  const auto run_count = in.reader.get<std::uint32_t>();

  // Apply to the home copy, remember the runs (with pages) for forwarding.
  Buffer forward_runs;
  forward_runs.put<std::uint32_t>(run_count);
  std::vector<PageId> touched;
  std::size_t total_bytes = 0;
  for (std::uint32_t i = 0; i < run_count; ++i) {
    const auto addr = in.reader.get<std::uint64_t>();
    const auto len = in.reader.get<std::uint32_t>();
    auto bytes = in.reader.get_span(len);
    HYP_CHECK_MSG(nd.is_home(layout_.page_of(addr)), "erc release reached a non-home node");
    std::memcpy(nd.arena() + addr, bytes.data(), len);
    forward_runs.put<std::uint64_t>(addr);
    forward_runs.put<std::uint32_t>(len);
    forward_runs.put_bytes(bytes.data(), len);
    touched.push_back(layout_.page_of(addr));
    total_bytes += len;
  }
  cluster_->node(self).extend_service(cluster_->params().cpu.copy_cost(total_bytes));

  // Forward to every sharer of a touched page except the releaser.
  NodeSet targets;
  for (PageId p : touched) {
    for (NodeId sharer : sharers_[p]) {
      if (sharer != in.from) targets.insert(sharer);
    }
  }

  if (targets.empty()) {
    cluster_->reply(in, Buffer{});
    return;
  }
  const std::uint64_t release_id = next_release_id_++;
  pending_[release_id] = {in.from, in.reply_token, static_cast<int>(targets.size())};
  for (NodeId target : targets) {
    Buffer update;
    update.put<std::uint64_t>(release_id);
    update.put_bytes(forward_runs.data(), forward_runs.size());
    cluster_->send(self, target, svc::kErcUpdate, std::move(update));
  }
}

void ErcDsm::handle_update(cluster::Incoming& in, NodeId self) {
  NodeDsm& nd = node_dsm(self);
  const auto release_id = in.reader.get<std::uint64_t>();
  const auto run_count = in.reader.get<std::uint32_t>();
  std::size_t applied = 0;
  for (std::uint32_t i = 0; i < run_count; ++i) {
    const auto addr = in.reader.get<std::uint64_t>();
    const auto len = in.reader.get<std::uint32_t>();
    auto bytes = in.reader.get_span(len);
    const PageId p = layout_.page_of(addr);
    if (nd.present(p) && !nd.is_home(p)) {
      // Patch the replica AND its twin (the update is not a local write; it
      // must not be diffed back at our next release).
      std::memcpy(nd.arena() + addr, bytes.data(), len);
      std::memcpy(nd.twin(p) + layout_.offset_in_page(addr), bytes.data(), len);
      applied += len;
    }
  }
  cluster_->node(self).extend_service(cluster_->params().cpu.copy_cost(applied));
  if (in.reply_token != 0) {
    // Direct (home-writer) update delivered via call(): answer in place.
    cluster_->reply(in, Buffer{});
  } else {
    Buffer ack;
    ack.put<std::uint64_t>(release_id);
    cluster_->send(self, in.from, svc::kErcUpdateAck, std::move(ack));
  }
}

void ErcDsm::handle_update_ack(cluster::Incoming& in, NodeId self) {
  const auto release_id = in.reader.get<std::uint64_t>();
  auto it = pending_.find(release_id);
  HYP_CHECK_MSG(it != pending_.end(), "erc ack for unknown release");
  if (--it->second.acks_outstanding == 0) {
    cluster_->reply_to(self, it->second.releaser, it->second.reply_token, Buffer{});
    pending_.erase(it);
  }
}

}  // namespace hyp::dsm
