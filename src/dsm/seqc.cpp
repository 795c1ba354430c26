#include "dsm/seqc.hpp"

#include "common/assert.hpp"
#include "common/log.hpp"
#include "sim/engine.hpp"

namespace hyp::dsm {

namespace {
// Extra client-side services of the seqc protocol.
constexpr std::uint64_t kDirectoryCycles = 80;      // home bookkeeping per transition
}  // namespace

SeqDsm::SeqDsm(cluster::Cluster* cluster, std::size_t region_bytes)
    : cluster_(cluster),
      layout_(region_bytes, cluster->params().page_bytes, cluster->node_count()),
      directory_(layout_.total_pages()) {
  const int n = cluster->node_count();
  nodes_.reserve(static_cast<std::size_t>(n));
  modes_.resize(static_cast<std::size_t>(n));
  clients_.resize(static_cast<std::size_t>(n));
  for (NodeId i = 0; i < n; ++i) {
    nodes_.push_back(std::make_unique<NodeDsm>(&layout_, i));
    modes_[static_cast<std::size_t>(i)].assign(layout_.total_pages(), SeqMode::kInvalid);
    auto& cs = clients_[static_cast<std::size_t>(i)];
    cs.inval_version.assign(layout_.total_pages(), 0);
    cs.recall_pending.assign(layout_.total_pages(), 0);
    cs.recall_drop.assign(layout_.total_pages(), 0);
    cs.local_excl_pending.assign(layout_.total_pages(), 0);

    cluster_->node(i).register_service(
        svc::kSeqRead, [this, i](cluster::Incoming& in) { handle_request(in, i, false); });
    cluster_->node(i).register_service(
        svc::kSeqWrite, [this, i](cluster::Incoming& in) { handle_request(in, i, true); });
    cluster_->node(i).register_service(
        svc::kSeqRecall, [this, i](cluster::Incoming& in) { handle_recall(in, i); });
    cluster_->node(i).register_service(
        svc::kSeqInvalidate, [this, i](cluster::Incoming& in) { handle_invalidate(in, i); });
    cluster_->node(i).register_service(svc::kSeqInvAck, [this, i](cluster::Incoming& in) {
      const auto p = in.reader.get<std::uint32_t>();
      handle_invalidate_ack(i, p);
    });
    cluster_->node(i).register_service(svc::kSeqRecallReply, [this, i](cluster::Incoming& in) {
      const auto p = in.reader.get<std::uint32_t>();
      handle_recall_reply(i, p, in.reader);
    });
  }
  // Initially every page is exclusively held by its home node.
  for (PageId p = 0; p < layout_.total_pages(); ++p) {
    const NodeId home = layout_.home_of_page(p);
    directory_[p].exclusive_owner = home;
    modes_[static_cast<std::size_t>(home)][p] = SeqMode::kExclusive;
  }
}

SeqDsm::~SeqDsm() = default;

Gva SeqDsm::alloc(NodeId node, std::size_t bytes, std::size_t align) {
  return nodes_[static_cast<std::size_t>(node)]->alloc(bytes, align);
}

std::unique_ptr<SeqThreadCtx> SeqDsm::make_thread(NodeId node) {
  auto t = std::make_unique<SeqThreadCtx>(&cluster_->params().cpu);
  t->dsm = this;
  t->node = node;
  t->base = nodes_[static_cast<std::size_t>(node)]->arena();
  t->stats = &cluster_->node(node).stats();
  t->check_cost = cluster_->params().cpu.check_cost();
  t->clock.bind_cpu(&cluster_->node(node).app_cpu());
  return t;
}

// ---------------------------------------------------------------------------
// Client-side miss paths
//
// Race notes:
//  * A *read* grant can be overtaken by an invalidate for the same page
//    (the home granted us a replica and then served a writer before our
//    reply landed). The inval_version counter detects this: the stale bytes
//    are discarded and the loop refetches.
//  * An *exclusive* grant cannot be invalidated (the home never targets the
//    new owner), but a recall can race it; the recall handler defers and the
//    granting thread serves it right after installing, then re-contends.

void SeqDsm::read_miss(SeqThreadCtx& t, PageId p) {
  const NodeId home = layout_.home_of_page(p);
  auto& cs = client(t.node);
  t.clock.flush();
  if (home == t.node) {
    bool granted = false;
    Pending local{t.node, 0, false, sim::Engine::current()->current_fiber(), &granted};
    Directory& dir = directory_[p];
    if (dir.busy) {
      dir.waiting.push_back(local);
    } else {
      start_service(home, p, local);
    }
    while (!granted) sim::Engine::current()->park();
    // The home arena is the master copy at grant time; if a racing round
    // downgraded us again already, this read still linearizes at the grant.
    return;
  }
  const std::uint32_t v0 = cs.inval_version[p];
  Buffer req;
  req.put<std::uint32_t>(p);
  Buffer reply = cluster_->call(t.node, home, svc::kSeqRead, std::move(req));
  HYP_CHECK(reply.size() == layout_.page_bytes());
  std::memcpy(nodes_[static_cast<std::size_t>(t.node)]->page_ptr(p), reply.data(),
              reply.size());
  t.stats->add(Counter::kPageFetches);
  t.stats->add(Counter::kPageFetchBytes, reply.size());
  if (cs.inval_version[p] == v0) {
    modes_[static_cast<std::size_t>(t.node)][p] = SeqMode::kRead;
  }
  // else: an invalidate raced the grant — the caller still performs its one
  // read of the granted bytes (it is ordered before the invalidating write
  // in the SC total order), but the replica is not retained.
}

void SeqDsm::write_miss(SeqThreadCtx& t, PageId p) {
  const NodeId home = layout_.home_of_page(p);
  auto& cs = client(t.node);
  t.clock.flush();
  if (home == t.node) {
    bool granted = false;
    Pending local{t.node, 0, true, sim::Engine::current()->current_fiber(), &granted};
    Directory& dir = directory_[p];
    if (dir.busy) {
      dir.waiting.push_back(local);
    } else {
      start_service(home, p, local);
    }
    while (!granted) sim::Engine::current()->park();
    // grant() bumped local_excl_pending: rounds serviced before our store
    // lands stall in start_service instead of downgrading us.
    HYP_CHECK(mode(t.node, p) == SeqMode::kExclusive);
    (void)cs;
    return;
  }
  Buffer req;
  req.put<std::uint32_t>(p);
  Buffer reply = cluster_->call(t.node, home, svc::kSeqWrite, std::move(req));
  HYP_CHECK(reply.size() == layout_.page_bytes());
  std::memcpy(nodes_[static_cast<std::size_t>(t.node)]->page_ptr(p), reply.data(),
              reply.size());
  t.stats->add(Counter::kPageFetches);
  t.stats->add(Counter::kPageFetchBytes, reply.size());
  // Exclusive grants install unconditionally: the home never invalidates
  // the node it is granting to, and racing recalls defer until
  // write_complete().
  modes_[static_cast<std::size_t>(t.node)][p] = SeqMode::kExclusive;
}

void SeqDsm::write_complete(SeqThreadCtx& t, PageId p) {
  const NodeId home = layout_.home_of_page(p);
  auto& cs = client(t.node);
  if (home == t.node) {
    HYP_CHECK(cs.local_excl_pending[p] > 0);
    --cs.local_excl_pending[p];
    Directory& dir = directory_[p];
    if (cs.local_excl_pending[p] == 0 && dir.busy && dir.waiting_local_owner) {
      // A round stalled on our store: surrender ownership now. The home
      // arena is the master, so no bytes move.
      dir.waiting_local_owner = false;
      modes_[static_cast<std::size_t>(home)][p] =
          dir.in_service.wants_exclusive ? SeqMode::kInvalid : SeqMode::kRead;
      ++cs.inval_version[p];
      dir.exclusive_owner = -1;
      if (!dir.in_service.wants_exclusive) dir.copyset.insert(home);
      finish_service(home, p);
    }
    return;
  }
  if (cs.recall_pending[p] != 0) {
    const bool drop = cs.recall_drop[p] != 0;
    cs.recall_pending[p] = 0;
    cs.recall_drop[p] = 0;
    modes_[static_cast<std::size_t>(t.node)][p] = drop ? SeqMode::kInvalid : SeqMode::kRead;
    Buffer back;
    back.put<std::uint32_t>(p);
    back.put_bytes(nodes_[static_cast<std::size_t>(t.node)]->page_ptr(p),
                   layout_.page_bytes());
    cluster_->send(t.node, home, svc::kSeqRecallReply, std::move(back));
  }
}

// ---------------------------------------------------------------------------
// Home-side directory machine

void SeqDsm::handle_request(cluster::Incoming& in, NodeId self, bool exclusive) {
  const auto p = in.reader.get<std::uint32_t>();
  HYP_CHECK_MSG(layout_.home_of_page(p) == self, "seqc request reached a non-home node");
  cluster_->node(self).extend_service(cluster_->params().cpu.cycles(kDirectoryCycles));
  Pending req{in.from, in.reply_token, exclusive, nullptr, nullptr};
  Directory& dir = directory_[p];
  if (dir.busy) {
    dir.waiting.push_back(req);
    return;
  }
  start_service(self, p, req);
}

void SeqDsm::start_service(NodeId home, PageId p, Pending req) {
  Directory& dir = directory_[p];
  HYP_CHECK(!dir.busy);
  dir.busy = true;
  dir.in_service = req;
  dir.acks_outstanding = 0;

  // Step 1: recall the page if a foreign node owns it exclusively (the
  // home's copy may be stale).
  if (dir.exclusive_owner >= 0 && dir.exclusive_owner != home &&
      dir.exclusive_owner != req.requester) {
    Buffer msg;
    msg.put<std::uint32_t>(p);
    msg.put<std::uint8_t>(req.wants_exclusive ? 1 : 0);  // drop vs downgrade
    cluster_->send(home, dir.exclusive_owner, svc::kSeqRecall, std::move(msg));
    return;  // continues in handle_recall_reply (or the deferred-recall path)
  }
  if (dir.exclusive_owner == home && req.requester != home) {
    if (client(home).local_excl_pending[p] > 0) {
      // A home-local store was granted but has not landed: stall this round
      // until write_complete() surrenders the page (progress guarantee).
      dir.waiting_local_owner = true;
      return;
    }
    // The home itself owns the page; its arena is already the master copy.
    modes_[static_cast<std::size_t>(home)][p] =
        req.wants_exclusive ? SeqMode::kInvalid : SeqMode::kRead;
    ++client(home).inval_version[p];
    dir.exclusive_owner = -1;
    if (!req.wants_exclusive) dir.copyset.insert(home);
  }
  finish_service(home, p);
}

void SeqDsm::handle_recall(cluster::Incoming& in, NodeId self) {
  const auto p = in.reader.get<std::uint32_t>();
  const bool drop = in.reader.get<std::uint8_t>() != 0;
  auto& cs = client(self);
  ++cs.inval_version[p];
  if (modes_[static_cast<std::size_t>(self)][p] != SeqMode::kExclusive) {
    // The exclusive grant is still in flight: defer; the requesting thread
    // serves the recall right after installing (write_miss).
    cs.recall_pending[p] = 1;
    cs.recall_drop[p] = drop ? 1 : 0;
    return;
  }
  Buffer back;
  back.put<std::uint32_t>(p);
  back.put_bytes(nodes_[static_cast<std::size_t>(self)]->page_ptr(p), layout_.page_bytes());
  modes_[static_cast<std::size_t>(self)][p] = drop ? SeqMode::kInvalid : SeqMode::kRead;
  cluster_->send(self, in.from, svc::kSeqRecallReply, std::move(back));
}

void SeqDsm::handle_recall_reply(NodeId home, PageId p, BufferReader& payload) {
  Directory& dir = directory_[p];
  HYP_CHECK(dir.busy);
  auto bytes = payload.get_span(layout_.page_bytes());
  std::memcpy(nodes_[static_cast<std::size_t>(home)]->page_ptr(p), bytes.data(), bytes.size());
  const NodeId old_owner = dir.exclusive_owner;
  dir.exclusive_owner = -1;
  if (!dir.in_service.wants_exclusive && old_owner >= 0) {
    dir.copyset.insert(old_owner);  // downgraded to a read replica
  }
  finish_service(home, p);
}

void SeqDsm::finish_service(NodeId home, PageId p) {
  Directory& dir = directory_[p];
  const Pending req = dir.in_service;

  if (req.wants_exclusive && dir.acks_outstanding == 0 && !dir.copyset.empty()) {
    // Step 2 (writes): invalidate every replica except the requester.
    std::vector<NodeId> readers;
    dir.copyset.drain_into(readers);
    for (NodeId reader : readers) {
      if (reader == req.requester) continue;
      if (reader == home) {
        modes_[static_cast<std::size_t>(home)][p] = SeqMode::kInvalid;
        ++client(home).inval_version[p];
        continue;
      }
      Buffer msg;
      msg.put<std::uint32_t>(p);
      cluster_->send(home, reader, svc::kSeqInvalidate, std::move(msg));
      ++dir.acks_outstanding;
    }
    if (dir.acks_outstanding > 0) return;  // continues in handle_invalidate_ack
  }

  grant(home, p, req);
  dir.busy = false;
  if (!dir.waiting.empty()) {
    Pending next = dir.waiting.front();
    dir.waiting.pop_front();
    start_service(home, p, next);
  }
}

void SeqDsm::handle_invalidate(cluster::Incoming& in, NodeId self) {
  const auto p = in.reader.get<std::uint32_t>();
  ++client(self).inval_version[p];
  modes_[static_cast<std::size_t>(self)][p] = SeqMode::kInvalid;
  cluster_->node(self).stats().add(Counter::kInvalidations);
  Buffer ack;
  ack.put<std::uint32_t>(p);
  cluster_->send(self, in.from, svc::kSeqInvAck, std::move(ack));
}

void SeqDsm::handle_invalidate_ack(NodeId home, PageId p) {
  Directory& dir = directory_[p];
  HYP_CHECK(dir.busy && dir.acks_outstanding > 0);
  if (--dir.acks_outstanding == 0) finish_service(home, p);
}

void SeqDsm::grant(NodeId home, PageId p, const Pending& req) {
  Directory& dir = directory_[p];
  if (req.wants_exclusive) {
    dir.exclusive_owner = req.requester;
  } else {
    if (req.requester != home) dir.copyset.insert(req.requester);
  }

  if (req.local_fiber != nullptr) {
    // Home-local grant: the home arena is the master; just set the mode.
    HYP_CHECK(req.requester == home);
    modes_[static_cast<std::size_t>(home)][p] =
        req.wants_exclusive ? SeqMode::kExclusive : SeqMode::kRead;
    if (req.wants_exclusive) ++client(home).local_excl_pending[p];
    *req.local_granted = true;
    sim::Engine::current()->unpark(req.local_fiber);
    return;
  }
  const Time done_at = cluster_->node(home).extend_service(
      cluster_->params().cpu.copy_cost(layout_.page_bytes()));
  Buffer reply;
  reply.put_bytes(nodes_[static_cast<std::size_t>(home)]->page_ptr(p), layout_.page_bytes());
  cluster_->reply_to(home, req.requester, req.reply_token, std::move(reply),
                     done_at - cluster_->engine().now());
}

}  // namespace hyp::dsm
