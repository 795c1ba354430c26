#include "dsm/dsm.hpp"

#include <cstring>

#include "common/assert.hpp"
#include "common/log.hpp"

namespace hyp::dsm {

namespace {

// The two item sources of the update pipeline. Each supplies only its wire
// encoding, its body decoder, its apply cost (one formula whether the home
// applies a received message or the sender applies locally because it has
// become the home) and its service id; collect, route, ship and the
// home-side envelope are shared.
template <typename Item>
struct UpdateSource;

template <>
struct UpdateSource<WriteLogEntry> {
  static constexpr cluster::ServiceId kService = svc::kUpdateFields;
  static constexpr const char* kWhat = "write-log flush";
  static constexpr std::size_t kItemHeader = sizeof(std::uint64_t) + sizeof(std::uint8_t);
  static std::uint32_t len(const WriteLogEntry& e) { return e.size; }
  static const void* payload(const WriteLogEntry& e, const std::byte*) { return &e.value; }
  static void encode(Buffer* msg, const WriteLogEntry& e, const std::byte*) {
    WriteLog::encode_entry(msg, e);
  }
  template <typename Fn>
  static std::size_t decode_each(BufferReader& in, Fn&& fn) {
    return WriteLog::decode_each(in, [&](const WriteLogEntry& e) { fn(e.addr, &e.value, e.size); });
  }
  static Time apply_cost(const cluster::CpuParams& cpu, std::size_t count, std::size_t) {
    return cpu.cycles(cpu.update_entry_cycles * count);
  }
  static std::size_t applied_arg(std::size_t count, std::size_t) { return count; }
};

template <>
struct UpdateSource<DiffRun> {
  static constexpr cluster::ServiceId kService = svc::kUpdateRuns;
  static constexpr const char* kWhat = "diff flush";
  static constexpr std::size_t kItemHeader = sizeof(std::uint64_t) + sizeof(std::uint32_t);
  static std::uint32_t len(const DiffRun& r) { return r.len; }
  static const void* payload(const DiffRun& r, const std::byte* arena) { return arena + r.offset; }
  static void encode(Buffer* msg, const DiffRun& r, const std::byte* arena) {
    msg->put<std::uint64_t>(r.addr);
    msg->put<std::uint32_t>(r.len);
    msg->put_bytes(arena + r.offset, r.len);
  }
  template <typename Fn>
  static std::size_t decode_each(BufferReader& in, Fn&& fn) {
    const auto count = in.get<std::uint32_t>();
    for (std::uint32_t i = 0; i < count; ++i) {
      const auto addr = in.get<std::uint64_t>();
      const auto len = in.get<std::uint32_t>();
      fn(addr, in.get_span(len).data(), len);
    }
    return count;
  }
  static Time apply_cost(const cluster::CpuParams& cpu, std::size_t, std::size_t bytes) {
    return cpu.copy_cost(bytes);
  }
  static std::size_t applied_arg(std::size_t, std::size_t bytes) { return bytes; }
};

// A NACK is told from a success by size alone: empty where the success
// carries a page, one byte elsewhere (those successes are empty or the
// 8-byte epoch view).
Buffer nack_for(cluster::ServiceId service) {
  Buffer nack;
  if (service != svc::kPageRequest && service != svc::kQuorumRead) nack.put<std::uint8_t>(1);
  return nack;
}

}  // namespace

const char* protocol_name(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kJavaIc: return "java_ic";
    case ProtocolKind::kJavaPf: return "java_pf";
    case ProtocolKind::kHybrid: return "hybrid";
  }
  return "?";
}

ProtocolKind protocol_by_name(const std::string& name) {
  if (name == "java_ic") return ProtocolKind::kJavaIc;
  if (name == "java_pf") return ProtocolKind::kJavaPf;
  if (name == "hybrid") return ProtocolKind::kHybrid;
  HYP_PANIC("unknown protocol: " + name + " (expected java_ic, java_pf or hybrid)");
}

DsmSystem::DsmSystem(cluster::Cluster* cluster, std::size_t region_bytes, ProtocolKind kind)
    : cluster_(cluster),
      layout_(region_bytes, cluster->params().page_bytes, cluster->node_count()),
      kind_(kind) {
  const int n = cluster->node_count();
  applied_updates_.resize(static_cast<std::size_t>(n));
  nodes_.reserve(static_cast<std::size_t>(n));
  for (NodeId i = 0; i < n; ++i) {
    nodes_.push_back(std::make_unique<NodeDsm>(&layout_, i));
    cluster_->node(i).register_service(
        svc::kPageRequest, "page_request",
        [this, i](cluster::Incoming& in) { handle_page_request(in, i); });
    cluster_->node(i).register_service(
        svc::kUpdateFields, "update_fields",
        [this, i](cluster::Incoming& in) { handle_update<WriteLogEntry>(in, i); });
    cluster_->node(i).register_service(
        svc::kUpdateRuns, "update_runs",
        [this, i](cluster::Incoming& in) { handle_update<DiffRun>(in, i); });
    cluster_->node(i).register_service(
        svc::kQuorumRead, "quorum_read",
        [this, i](cluster::Incoming& in) { handle_quorum_read(in, i); });
  }
  if (kind_ == ProtocolKind::kHybrid) {
    // Mode break-even: a miss in pf mode costs (fault + mprotect) more than
    // an ic miss, an ic hit costs one check more than a pf hit; pf therefore
    // wins while the window shows at least R accesses per miss. Integer
    // division of virtual-time constants — deterministic by construction.
    const auto& cpu = cluster->params().cpu;
    const Time check = cpu.check_cost();
    hybrid_r_ = (cpu.page_fault_cost + cpu.mprotect_page_cost) / (check == 0 ? 1 : check);
    if (hybrid_r_ == 0) hybrid_r_ = 1;
    home_override_.assign(layout_.total_pages(), -1);
    mig_.assign(layout_.total_pages(), MigStat{});
    wheat_.reserve(static_cast<std::size_t>(n));
    for (NodeId i = 0; i < n; ++i) {
      nodes_[static_cast<std::size_t>(i)]->set_ic_default();
      wheat_.push_back(std::make_unique<obs::WindowedHeat>());
      wheat_.back()->init(layout_.total_pages());
    }
  }
}

Gva DsmSystem::alloc(NodeId node, std::size_t bytes, std::size_t align) {
  const Gva base = node_dsm(node).alloc(bytes, align);
  if (race_ != nullptr) [[unlikely]] race_->note_alloc(node, base, bytes);
  return base;
}

std::unique_ptr<ThreadCtx> DsmSystem::make_thread(NodeId node) {
  auto t = std::make_unique<ThreadCtx>(&cluster_->params().cpu);
  t->uid = next_thread_uid_++;
  t->dsm = this;
  t->node = node;
  t->nd = &node_dsm(node);
  t->base = t->nd->arena();
  t->presence = t->nd->presence_data();
  t->page_shift = layout_.page_shift();
  t->check_cost = cluster_->params().cpu.check_cost();
  if (kind_ == ProtocolKind::kHybrid) {
    t->awin = wheat_[static_cast<std::size_t>(node)]->raw_accesses();
    t->ic_giveup = hybrid_r_;
  }
  t->stats = &cluster_->node(node).stats();
  if (race_ != nullptr) {
    t->race = race_;
    t->race_tid = t->uid;
    race_->register_thread(t->uid, node);
  }
  // One processor per node: compute by this node's threads serializes.
  t->clock.bind_cpu(&cluster_->node(node).app_cpu());
  threads_.push_back(t.get());
  return t;
}

ThreadCtx::~ThreadCtx() {
  if (dsm != nullptr) dsm->unregister_thread(this);
}

void DsmSystem::unregister_thread(ThreadCtx* t) {
  for (auto it = threads_.begin(); it != threads_.end(); ++it) {
    if (*it == t) {
      threads_.erase(it);
      return;
    }
  }
}

void DsmSystem::replay_logged_writes(NodeId node, Gva begin, Gva end) {
  NodeDsm& nd = node_dsm(node);
  for (ThreadCtx* t : threads_) {
    if (t->node != node) continue;
    // Program order within a thread gives last-writer-wins; cross-thread
    // conflicts on unflushed stores are data races (undefined under the JMM).
    for (const WriteLogEntry& e : t->wlog.entries()) {
      if (e.addr >= begin && e.addr < end) {
        std::memcpy(nd.arena() + e.addr, &e.value, e.size);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Home calls

Buffer DsmSystem::home_call(ThreadCtx& t, NodeId& target, Gva route,
                            cluster::ServiceId service, std::size_t reply_bytes,
                            bool caller_regroups, const char* what,
                            FunctionRef<Buffer()> build) {
  if (ha_ == nullptr) {
    int failures = 0;
    for (int nacks = 0;;) {
      // On a lossless network this is one plain call that cannot fail.
      cluster::RpcResult r = cluster_->call_result(t.node, target, service, build());
      if (!r.ok()) {
        if (++failures >= kRpcAttempts) {
          HYP_PANIC(std::string(what) + " abandoned after " + std::to_string(failures) +
                    " attempts: " + r.error.message);
        }
        continue;
      }
      if (!migrations_enabled() || caller_regroups || r.payload.size() == reply_bytes) {
        return std::move(r.payload);
      }
      // Migration NACK: the home moved while the request was in flight. The
      // override table is updated synchronously at migration, so one
      // re-resolve converges; the guard bounds a pathological ping-pong.
      // Lossy retries keep their payload (same op id), so an op an earlier
      // home did apply reattaches instead of double-applying.
      if (++nacks >= 64) HYP_PANIC(std::string(what) + ": migration reroute did not converge");
      t.stats->add(Counter::kHaReroutes);
      target = effective_home_of(route);
      failures = 0;
    }
  }
  const std::size_t epoch_bytes = fencing_ ? sizeof(std::uint64_t) : 0;
  const std::size_t ok_size = reply_bytes + epoch_bytes;
  auto* eng = sim::Engine::current();
  const Time started = cluster_->engine().now();
  int attempts_at_target = 0;
  bool rerouted = false;
  // The guard bounds pathological NACK/re-resolve loops; a real failover
  // converges in a handful of iterations (single-failure model).
  for (int guard = 0; guard < 64; ++guard) {
    const NodeId now_home = effective_home_of(route);
    if (now_home != target) {
      // The zone's home moved (promotion): fresh retry budget at the new one.
      target = now_home;
      attempts_at_target = 0;
      rerouted = true;
      t.stats->add(Counter::kHaReroutes);
    }
    ++attempts_at_target;
    cluster::RpcResult r = cluster_->call_result(t.node, target, service, build());
    if (r.ok() && r.payload.size() == ok_size) {
      if (fencing_) {
        // The reply leads with the serving home's epoch view: a reply from a
        // home this side has already fenced off is discarded like a NACK and
        // the call re-resolves (transient — the next attempt either reaches
        // the promoted home or sees the server's caught-up epoch).
        std::uint64_t reply_epoch = 0;
        std::memcpy(&reply_epoch, r.payload.data(), sizeof(reply_epoch));
        if (reply_epoch < ha_->node_epoch(t.node)) {
          t.stats->add(Counter::kHaFencedRejects);
          cluster_->trace_event(t.node, cluster::TraceKind::kHaFencedReject,
                                static_cast<std::int64_t>(reply_epoch), service);
          continue;
        }
      }
      if (rerouted) {
        t.stats->record(Hist::kHaRerouteWait,
                        static_cast<std::uint64_t>(cluster_->engine().now() - started));
      }
      if (!fencing_) return std::move(r.payload);
      Buffer out(reply_bytes);
      out.put_bytes(r.payload.data() + epoch_bytes, reply_bytes);
      return out;
    }
    if (!r.ok() && r.error.status == cluster::RpcStatus::kNoQuorum) {
      // Minority-side degradation: the wire to the home is cut. Park with a
      // fresh budget until the surviving side can have re-homed the zone
      // (cut start + confirm + watcher slack — the call then re-resolves) or
      // the heal instant, whichever comes first. Both are deterministic.
      attempts_at_target = 0;
      t.stats->add(Counter::kHaNoQuorumHolds);
      const auto& f = cluster_->params().fault;
      const Time at = cluster_->engine().now();
      const Time heal = f.severed_until(t.node, target, at);
      if (heal > at) {
        Time wake = heal;
        const Time confirm_by =
            f.severed_since(t.node, target, at) + f.confirm_after + 2 * f.hb_interval;
        if (confirm_by > at && confirm_by < wake) wake = confirm_by;
        eng->sleep_until(wake);
      }
      continue;
    }
    if (!r.ok() && attempts_at_target >= kRpcAttempts && !ha_->confirmed_dead(target)) {
      HYP_PANIC(std::string(what) + " abandoned after " + std::to_string(attempts_at_target) +
                " attempts: " + r.error.message);
    }
    // r.ok() with the wrong reply shape is a stale-home NACK: loop and
    // re-resolve. A failed call against a down-but-unconfirmed target holds
    // until the failure detector has had enough silence to decide.
    const Time at = cluster_->engine().now();
    Time hold = ha_->retry_hold(target, at);
    if (fencing_ && r.ok()) {
      // The NACK may mean OUR epoch is stale (the NACK cannot say): a node
      // inside an open partition window catches up only at the heal, so
      // retrying before then just burns the guard against more fences.
      // Reaches here when the minority node addresses a bystander home that
      // is outside every partition group but already on the new epoch.
      const Time release = cluster_->params().fault.partition_release(t.node, at);
      if (release > hold) hold = release;
    }
    if (hold > at) eng->sleep_until(hold);
  }
  HYP_PANIC(std::string(what) + ": home failover did not converge (epoch " +
            std::to_string(ha_->epoch()) + ")");
}

bool DsmSystem::fenced(cluster::Incoming& in, NodeId self, cluster::ServiceId service) {
  if (!fencing_) return false;
  const auto msg_epoch = in.reader.get<std::uint64_t>();
  if (msg_epoch >= ha_->node_epoch(self)) return false;
  // The request was built under a routing view this node has superseded (a
  // promotion happened between send and receive): a stale-epoch caller must
  // not read or mutate home state.
  cluster_->node(self).stats().add(Counter::kHaFencedRejects);
  cluster_->trace_event(self, cluster::TraceKind::kHaFencedReject,
                        static_cast<std::int64_t>(msg_epoch), service);
  cluster_->reply(in, nack_for(service));
  return true;
}

void DsmSystem::nack_stale(cluster::Incoming& in, NodeId self, cluster::ServiceId service) {
  cluster_->trace_event(self, cluster::TraceKind::kHaNack, in.from, service);
  cluster_->reply(in, nack_for(service));
}

// ---------------------------------------------------------------------------
// Page transfer

void DsmSystem::fetch_page(ThreadCtx& t, PageId p) {
  HYP_CHECK_MSG(!t.nd->is_home(p), "fetching a home page");
  auto* eng = sim::Engine::current();
  sim::Fiber* self = eng->current_fiber();

  // At most one outstanding fetch per (node, page); later threads wait.
  if (!t.nd->begin_fetch(p, self)) {
    t.nd->wait_fetch(p, self);
    return;
  }

  NodeId home = effective_home_of_page(p);
  const std::size_t page_bytes = layout_.page_bytes();
  const auto& cpu = cluster_->params().cpu;

  Buffer reply;
  if (fencing_ && ha_->suspected(home) && try_quorum_read(t, p, home, &reply)) {
    // Suspected-home window: a majority of the home's chain backups served
    // the read, so the fetch skips the detector's confirm wait entirely.
  } else {
    auto build = [&] {
      Buffer req;
      put_epoch(&req, t.node);
      req.put<std::uint32_t>(p);
      return req;
    };
    home = effective_home_of_page(p);
    reply = home_call(t, home, layout_.page_base(p), svc::kPageRequest, page_bytes,
                      /*caller_regroups=*/false, "page fetch", build);
    if (ha_ != nullptr) home = effective_home_of_page(p);  // the home after failover
  }
  if (t.nd->present(p)) {
    // A promotion or a migration made this node the page's home while the
    // fetch was in flight: the arena bytes are already authoritative —
    // installing the reply as a cached replica would corrupt the presence
    // table.
    t.nd->finish_fetch(p);
    return;
  }
  HYP_CHECK_MSG(reply.size() == page_bytes, "page reply has wrong size");

  // Install the replica (real bytes) and charge the local copy-in.
  std::memcpy(t.nd->page_ptr(p), reply.data(), page_bytes);
  t.clock.charge(cpu.copy_cost(page_bytes));
  const bool with_twin = kind_ == ProtocolKind::kJavaPf ||
                         (kind_ == ProtocolKind::kHybrid && !t.nd->ic_mode(p));
  t.nd->mark_cached(p, with_twin);
  if (with_twin) t.clock.charge(cpu.copy_cost(page_bytes));  // twin snapshot
  t.clock.flush();

  t.stats->add(Counter::kPageFetches);
  t.stats->add(Counter::kPageFetchBytes, page_bytes);
  if (heat_ != nullptr) [[unlikely]] heat_->record_fetch(p);
  cluster_->trace_event(t.node, cluster::TraceKind::kPageFetch, p, home);
  t.nd->finish_fetch(p);
}

void DsmSystem::fetch_until_present(ThreadCtx& t, PageId p) {
  // Observation wrapper around the fetch loop: the histogram/phase records
  // are pure accumulation plus two clock reads, so attaching them can never
  // shift virtual time (determinism_golden pins this).
  const Time t0 = cluster_->engine().now();
  while (!t.nd->present(p)) fetch_page(t, p);
  const TimeDelta waited = cluster_->engine().now() - t0;
  t.stats->record(Hist::kPageFetchLatency, waited);
  cluster_->phase_add(t.node, obs::Phase::kBlockedFetch, waited);
}

void DsmSystem::handle_page_request(cluster::Incoming& in, NodeId self) {
  if (fenced(in, self, svc::kPageRequest)) return;
  const auto p = in.reader.get<std::uint32_t>();
  NodeDsm& nd = node_dsm(self);
  if (!nd.is_home(p)) {
    // Stale-home straggler: a retransmit that outlived a promotion, a
    // request reaching a restarted (demoted) node, or a request that raced a
    // hybrid home migration.
    HYP_CHECK_MSG(ha_ != nullptr || migrations_enabled(), "page request reached a non-home node");
    nack_stale(in, self, svc::kPageRequest);
    return;
  }
  reply_page(in, self, nd.page_ptr(p));
}

void DsmSystem::reply_page(cluster::Incoming& in, NodeId self, const std::byte* page) {
  // The serving node's CPU/service copies the page out; the reply departs
  // when that work completes.
  const std::size_t page_bytes = layout_.page_bytes();
  const Time done_at = cluster_->node(self).extend_service(
      cluster_->params().cpu.copy_cost(page_bytes));
  Buffer out = home_ack(self);
  out.put_bytes(page, page_bytes);
  cluster_->reply(in, std::move(out), done_at - cluster_->engine().now());
}

bool DsmSystem::try_quorum_read(ThreadCtx& t, PageId p, NodeId home, Buffer* out) {
  const auto& f = cluster_->params().fault;
  const Time now = cluster_->engine().now();
  const std::uint32_t k = ha_->replicas();
  // A strict majority of the home's K chain backups must be up and reachable
  // (both directions) from the reader; with fewer votes this side cannot rule
  // out that the "suspected" home is healthy and serving the far side of a
  // cut, so the read falls back to the ordinary detector path.
  std::uint32_t votes = 0;
  NodeId backup = -1;
  bool self_holds = false;
  for (std::uint32_t i = 0; i < k; ++i) {
    const NodeId b = ha_->chain_backup(home, i);
    if (ha_->confirmed_dead(b) || f.crash_release(b, now) != 0) continue;
    if (b == t.node) {
      ++votes;
      self_holds = true;
      continue;
    }
    if (f.severed(t.node, b, now) || f.severed(b, t.node, now)) continue;
    ++votes;
    if (backup < 0) backup = b;
  }
  if (votes * 2 <= k) return false;

  const std::size_t page_bytes = layout_.page_bytes();
  if (backup < 0) {
    if (!self_holds) return false;
    backup = t.node;  // the reader itself carries the chain copy
  }
  if (backup == t.node) {
    Buffer local(page_bytes);
    local.put_bytes(node_dsm(effective_home_of_page(p)).page_ptr(p), page_bytes);
    t.clock.charge(cluster_->params().cpu.copy_cost(page_bytes));
    *out = std::move(local);
  } else {
    Buffer req;
    req.put<std::uint64_t>(ha_->node_epoch(t.node));
    req.put<std::uint32_t>(p);
    cluster::RpcResult r =
        cluster_->call_result(t.node, backup, svc::kQuorumRead, std::move(req));
    if (!r.ok() || r.payload.size() != page_bytes + sizeof(std::uint64_t)) return false;
    Buffer body(page_bytes);
    body.put_bytes(r.payload.data() + sizeof(std::uint64_t), page_bytes);
    *out = std::move(body);
  }
  t.stats->add(Counter::kHaQuorumReads);
  cluster_->trace_event(t.node, cluster::TraceKind::kHaQuorumRead, p, backup);
  return true;
}

void DsmSystem::handle_quorum_read(cluster::Incoming& in, NodeId self) {
  HYP_CHECK_MSG(fencing_, "quorum reads are issued only under epoch fencing");
  if (fenced(in, self, svc::kQuorumRead)) return;
  const auto p = in.reader.get<std::uint32_t>();
  // The chain backup serves the page from its replicated copy of the home's
  // state. The modeled checkpoint stream keeps replicas current with every
  // committed update (docs/RECOVERY.md), so the effective home's arena IS the
  // replica's contents — the simulator reads it directly instead of keeping a
  // second materialized copy per backup.
  reply_page(in, self, node_dsm(effective_home_of_page(p)).page_ptr(p));
}

// ---------------------------------------------------------------------------
// Protocol cold paths

void DsmSystem::miss_ic(ThreadCtx& t, PageId p) {
  // The in-line check already ran (and was charged) in the fast path.
  t.clock.flush();
  fetch_until_present(t, p);
}

void DsmSystem::miss_pf(ThreadCtx& t, PageId p) {
  const auto& cpu = cluster_->params().cpu;
  // Hardware trap + kernel + SIGSEGV dispatch (the paper's 12/22 us), then
  // the fetch, then mprotect to open the page READ/WRITE.
  t.stats->add(Counter::kPageFaults);
  if (heat_ != nullptr) [[unlikely]] heat_->record_fault(p);
  cluster_->trace_event(t.node, cluster::TraceKind::kPageFault, p);
  t.clock.charge(cpu.page_fault_cost);
  t.clock.flush();
  fetch_until_present(t, p);
  t.stats->add(Counter::kMprotectCalls);
  t.clock.charge(cpu.mprotect_page_cost);
  t.clock.flush();
}

void DsmSystem::miss_hybrid(ThreadCtx& t, PageId p) {
  const auto& cpu = cluster_->params().cpu;
  const bool was_ic = t.nd->ic_mode(p);
  if (!was_ic) {
    // pf-mode pages sit behind page protection while absent, so this miss
    // was a hardware trap (the paper's fault cost); ic-mode pages found the
    // miss via the inline check the fast path already charged.
    t.stats->add(Counter::kPageFaults);
    if (heat_ != nullptr) [[unlikely]] heat_->record_fault(p);
    cluster_->trace_event(t.node, cluster::TraceKind::kPageFault, p);
    t.clock.charge(cpu.page_fault_cost);
  }
  t.clock.flush();
  // Mode decision: made before the fetch (the fetch must know whether to
  // twin) and only by the fiber that will start it — waiters inherit the
  // decision already in flight. Between two misses the page served `acc`
  // accesses: ic would have cost acc checks, pf one fault + mprotect = R
  // checks — so ic wins below R accesses per miss. The rule is a hysteresis
  // band around that break-even: leave ic once acc >= R * miss, but
  // re-enter it only when clearly favorable (2 * acc < R * miss). Without
  // the band, pages hovering near R oscillate — give up mid-generation,
  // flip back at the next miss, and pay the flip overhead (twin snapshot +
  // mprotect + the re-entry fault) every round on top of the checks.
  // Inside the band both modes cost within 2x of each other, so staying
  // put is the cheap choice. The at-miss decision is not the only escape:
  // a page wrongly left in ic bleeds one check per access with no miss in
  // sight (e.g. a read-once-then-scan page never misses again inside a
  // generation), so the fast path bails out through give_up_ic once the
  // raw tally crosses R — capping the wrong-ic loss at one
  // fault-equivalent per generation. A wrongly-pf page already costs at
  // most R per miss by construction. First touch (acc ~ 0, miss = 1)
  // keeps the set_ic_default ic start: sparse pages never pay a blind
  // fault.
  if (!t.nd->fetch_inflight(p)) {
    obs::WindowedHeat& w = *wheat_[static_cast<std::size_t>(t.node)];
    const std::uint64_t epoch = cluster_->engine().now() / kModeEpoch;
    w.note_miss(p, epoch);
    const std::uint64_t acc = w.accesses(p);
    const std::uint64_t miss = w.misses(p);  // >= 1: note_miss counted this one
    const std::uint64_t breakeven = static_cast<std::uint64_t>(hybrid_r_) * miss;
    const bool next_ic = was_ic ? acc < breakeven : 4 * acc < breakeven;
    if (next_ic != was_ic) {
      t.nd->set_ic_mode(p, next_ic);
      t.stats->add_named("dsm_mode_switches");
      cluster_->trace_event(t.node, cluster::TraceKind::kModeSwitch, p, next_ic ? 1 : 0);
    }
  }
  fetch_until_present(t, p);
  if (!was_ic) {
    // Re-open the trapped page READ/WRITE, whatever mode it continues in.
    t.stats->add(Counter::kMprotectCalls);
    t.clock.charge(cpu.mprotect_page_cost);
    t.clock.flush();
  }
}

void DsmSystem::give_up_ic(ThreadCtx& t, PageId p) {
  // The at-miss decision cannot help a page that stops missing: a page read
  // once and then scanned densely (ASP's row-k broadcast is the archetype)
  // would pay a check on every access forever. The fast path calls this once
  // the raw tally since the last fold reaches R — the point where the checks
  // already paid equal one fault + mprotect, so switching now caps the loss.
  // Deliberately yield-free (no clock.flush): the caller re-reads the
  // presence byte it already loaded and a park here could let another fiber
  // invalidate the page under a half-done access.
  if (!t.nd->ic_mode(p) || !t.nd->present(p)) return;
  const auto& cpu = cluster_->params().cpu;
  wheat_[static_cast<std::size_t>(t.node)]->fold(
      p, cluster_->engine().now() / kModeEpoch);
  if (!t.nd->is_home(p) && !t.nd->has_twin(p)) {
    // pf-mode replicas are twin-diffed at flush; snapshot one now so bare
    // stores made after the flip are still shipped home. Stores made before
    // it are already in the write log — the two cover the generation with no
    // gap and no double-send.
    t.nd->ensure_twin(p);
    t.clock.charge(cpu.copy_cost(layout_.page_bytes()));
  }
  t.nd->set_ic_mode(p, false);
  t.stats->add(Counter::kMprotectCalls);
  t.clock.charge(cpu.mprotect_page_cost);
  t.stats->add_named("dsm_mode_switches");
  cluster_->trace_event(t.node, cluster::TraceKind::kModeSwitch, p, 0);
}

// ---------------------------------------------------------------------------
// Table 2 primitives

void DsmSystem::load_into_cache(ThreadCtx& t, Gva addr) {
  const PageId p = layout_.page_of(addr);
  t.clock.flush();
  if (t.nd->present(p)) return;  // prefetch of a present page: nothing to log
  fetch_until_present(t, p);
}

void DsmSystem::invalidate_cache(ThreadCtx& t) {
  const auto& cpu = cluster_->params().cpu;
  const std::size_t cached = t.nd->cached_pages().size();
  if (kind_ == ProtocolKind::kJavaPf) {
    // One region-wide mprotect re-protects every non-home page (§3.3: "this
    // protection is set on each entry to a monitor").
    t.stats->add(Counter::kMprotectCalls);
    t.clock.charge(cpu.mprotect_region_cost);
  } else if (kind_ == ProtocolKind::kHybrid) {
    // Only pf-mode replicas (exactly the cached pages holding a twin) sit
    // behind page protection; ic-mode pages are guarded by checks. When no
    // pf-mode page is cached the region mprotect is skipped entirely — the
    // structural saving over java_pf on check-heavy workloads.
    for (PageId p : t.nd->cached_pages()) {
      if (t.nd->has_twin(p)) {
        t.stats->add(Counter::kMprotectCalls);
        t.clock.charge(cpu.mprotect_region_cost);
        break;
      }
    }
  }
  t.clock.charge(cpu.cycles(cpu.invalidate_page_cycles * cached));
  const std::size_t dropped = t.nd->invalidate_all();
  t.stats->add(Counter::kInvalidations, dropped);
  cluster_->trace_event(t.node, cluster::TraceKind::kInvalidate,
                        static_cast<std::int64_t>(dropped));
  t.clock.flush();
}

// ---------------------------------------------------------------------------
// The update pipeline: collect -> route -> ship (docs/PROTOCOLS.md §update
// pipeline)
//
// The protocols differ only in which item sources they fill:
//   fields — the write log, last writer wins, first-touch order (java_ic,
//            hybrid's ic-mode pages), shipped as svc::kUpdateFields;
//   runs   — maximal runs of modified words from the twin diff (java_pf,
//            hybrid's pf-mode pages), shipped as svc::kUpdateRuns: u32
//            run_count, then per run (u64 gva, u32 len, raw bytes).
// Under a bounded dedup window every update message leads with a u64 update
// id; under epoch fencing home_call prepends the epoch per attempt.

void DsmSystem::update_main_memory(ThreadCtx& t) {
  // A consistency action is a synchronization point: materialize the
  // thread's batched compute first (otherwise pending time is silently
  // dropped on paths that have nothing to flush, e.g. thread termination).
  t.clock.flush();
  // java_ic keeps no twins, so an empty log leaves nothing to ship (the
  // common case: every monitor entry flushes).
  if (kind_ == ProtocolKind::kJavaIc && t.wlog.empty()) return;
  const auto& cpu = cluster_->params().cpu;
  FlushScratch& s = t.scratch;
  s.begin(t.wlog.size());
  // The paper protocols group each source once, before the collect charge
  // yields; hybrid keys its cohorts at send time instead.
  const bool ascending = !migrations_enabled();

  if (!t.wlog.empty()) {
    for (const auto& e : t.wlog.entries()) {
      bool fresh = false;
      IcDedupTable::Slot* slot = s.dedup.find_or_insert(e.addr, &fresh);
      if (fresh) {
        slot->index = static_cast<std::uint32_t>(s.fields.pending.size());
        s.fields.pending.push_back(e);
      } else {
        s.fields.pending[slot->index] = e;
      }
    }
    if (ascending) group_ascending(s.fields);
    t.clock.charge(cpu.cycles(cpu.update_entry_cycles * t.wlog.size()));
    t.clock.flush();
  }

  if (kind_ != ProtocolKind::kJavaIc) {
    // Scan, snapshot and twin refresh happen atomically in virtual time (no
    // yields): a same-node thread writing during our later sends must see
    // its own writes as fresh diffs against the refreshed twin, not have
    // them silently absorbed.
    const std::size_t page_bytes = layout_.page_bytes();
    std::uint64_t diff_words = 0;
    for (PageId p : t.nd->cached_pages()) {
      if (!t.nd->has_twin(p)) continue;
      t.clock.charge(cpu.diff_cost(page_bytes));
      const std::byte* cur = t.nd->page_ptr(p);
      const Gva base = layout_.page_base(p);
      const std::size_t modified =
          scan_diff_runs(cur, t.nd->twin(p), page_bytes / 8, [&](std::size_t b, std::size_t e) {
            const auto offset = static_cast<std::uint32_t>(s.run_bytes.size());
            s.run_bytes.insert(s.run_bytes.end(), cur + b * 8, cur + e * 8);
            s.runs.pending.push_back(
                DiffRun{base + b * 8, offset, static_cast<std::uint32_t>((e - b) * 8)});
          });
      if (modified != 0) t.nd->refresh_twin(p);
      diff_words += modified;
    }
    if (ascending) group_ascending(s.runs);
    t.stats->add(Counter::kDiffWords, diff_words);
    t.clock.flush();
  }

  route(t, s.fields);
  t.wlog.clear();
  route(t, s.runs);
}

void DsmSystem::on_acquire(ThreadCtx& t) {
  // Conservative JMM: make our modifications visible, then drop all cached
  // copies so subsequent reads see fresh home data.
  update_main_memory(t);
  invalidate_cache(t);
}

void DsmSystem::on_release(ThreadCtx& t) { update_main_memory(t); }

template <typename Item>
void DsmSystem::group_ascending(ItemQueue<Item>& q) {
  // Key: the layout home, or under HA with K == 1 the effective home (all of
  // a node's zones move together). With K > 1 chain replicas two zones homed
  // at one node may be re-elected to different nodes, so groups stay
  // zone-pure: key on the zone owner, which is the layout home.
  const bool by_zone = ha_ == nullptr || ha_->replicas() > 1;
  auto key = [&](const Item& it) {
    return static_cast<std::size_t>(by_zone ? layout_.home_of(it.addr)
                                            : effective_home_of(it.addr));
  };
  // Stable counting sort into `rest`: first-touch order within a group.
  q.ends.assign(static_cast<std::size_t>(cluster_->node_count()) + 1, 0);
  for (const Item& it : q.pending) ++q.ends[key(it) + 1];
  for (std::size_t k = 1; k < q.ends.size(); ++k) q.ends[k] += q.ends[k - 1];
  q.rest.resize(q.pending.size());
  for (const Item& it : q.pending) q.rest[q.ends[key(it)]++] = it;
}

template <typename Item>
void DsmSystem::route(ThreadCtx& t, ItemQueue<Item>& q) {
  if (!migrations_enabled()) {
    const bool zone_pure = ha_ != nullptr && ha_->replicas() > 1;
    std::uint32_t begin = 0;
    for (std::size_t k = 0; k + 1 < q.ends.size(); ++k) {
      const std::uint32_t end = q.ends[k];
      if (end == begin) continue;
      const Item* group = q.rest.data() + begin;
      // Zone-pure groups resolve the zone's CURRENT home here (home_call
      // re-resolves per attempt anyway, so a mid-flush promotion is absorbed).
      const NodeId home = zone_pure ? effective_home_of(group->addr) : static_cast<NodeId>(k);
      const bool delivered = ship(t, home, group, end - begin);
      HYP_CHECK(delivered);
      begin = end;
    }
    return;
  }
  // hybrid: a page's home can move between building a message and its
  // delivery, so take the first pending item's key, peel off everything
  // sharing it and send; a NACK leaves the cohort pending and the next round
  // re-keys against the (synchronously updated) override table. Under HA the
  // key is the page itself, so home_call's re-resolve converges on a single
  // moving page; without HA cohorts share an effective home, matching the
  // paper protocols' message counts whenever no migration is in flight.
  const bool page_pure = ha_ != nullptr;
  for (int nacks = 0; !q.pending.empty();) {
    q.cohort.clear();
    q.rest.clear();
    const PageId lead = layout_.page_of(q.pending.front().addr);
    const NodeId home = effective_home_of_page(lead);
    for (const Item& it : q.pending) {
      const bool same = page_pure ? layout_.page_of(it.addr) == lead
                                  : effective_home_of(it.addr) == home;
      (same ? q.cohort : q.rest).push_back(it);
    }
    if (ship(t, home, q.cohort.data(), q.cohort.size())) {
      q.pending.swap(q.rest);
    } else {
      // Only NACKs count against the guard: a page-pure flush legitimately
      // ships one cohort per dirty page, however many there are.
      HYP_CHECK_MSG(++nacks < 256, "hybrid flush: migration reroute did not converge");
    }
  }
}

template <typename Item>
bool DsmSystem::ship(ThreadCtx& t, NodeId home, const Item* items, std::size_t n) {
  using Src = UpdateSource<Item>;
  const auto& cpu = cluster_->params().cpu;
  const std::byte* arena = t.scratch.run_bytes.data();
  if (home == t.node) {
    // A promotion or migration made this node the home: apply exactly the
    // bytes the wire would have carried straight into the arena.
    HYP_CHECK_MSG(ha_ != nullptr || migrations_enabled(), "home-page writes are never logged");
    std::size_t bytes = 0;
    for (std::size_t i = 0; i < n; ++i) {
      std::memcpy(t.nd->arena() + items[i].addr, Src::payload(items[i], arena),
                  Src::len(items[i]));
      bytes += Src::len(items[i]);
    }
    t.clock.charge(Src::apply_cost(cpu, n, bytes));
    t.clock.flush();
    return true;
  }
  // Bounded dedup window: tag the message so a late re-delivery of an
  // evicted packet cannot stale-revert newer home bytes (see dsm.hpp).
  const std::uint64_t id = update_ids_active() ? next_update_id_++ : 0;
  std::size_t size = (id != 0 ? sizeof(id) : 0) + sizeof(std::uint32_t);
  for (std::size_t i = 0; i < n; ++i) size += Src::kItemHeader + Src::len(items[i]);
  t.stats->add(Counter::kUpdatesSent);
  t.stats->add(Counter::kUpdateBytes, size);
  t.stats->record(Hist::kUpdatePayloadBytes, size);
  if (heat_ != nullptr) [[unlikely]] {
    for (std::size_t i = 0; i < n; ++i) {
      heat_->record_update(layout_.page_of(items[i].addr), Src::len(items[i]));
    }
  }
  cluster_->trace_event(t.node, cluster::TraceKind::kUpdateSent, home,
                        static_cast<std::int64_t>(size));
  auto build = [&] {
    Buffer msg(size + sizeof(std::uint64_t));
    put_epoch(&msg, t.node);
    if (id != 0) msg.put<std::uint64_t>(id);
    msg.put<std::uint32_t>(static_cast<std::uint32_t>(n));
    for (std::size_t i = 0; i < n; ++i) Src::encode(&msg, items[i], arena);
    return msg;
  };
  NodeId target = effective_home_of(items[0].addr);
  const Buffer ack = home_call(t, target, items[0].addr, Src::kService, /*reply_bytes=*/0,
                               /*caller_regroups=*/true, Src::kWhat, build);
  return ack.empty();
}

template <typename Item>
void DsmSystem::handle_update(cluster::Incoming& in, NodeId self) {
  using Src = UpdateSource<Item>;
  if (fenced(in, self, Src::kService)) return;
  // Bounded dedup window: a re-delivered (window-evicted) update that was
  // already applied must NOT re-apply — its bytes may be stale by now. Just
  // re-ack (the original ack may be what got lost; a completed caller slot
  // absorbs the second reply).
  std::uint64_t update_id = 0;
  if (update_ids_active()) {
    update_id = in.reader.get<std::uint64_t>();
    if (applied_updates_[static_cast<std::size_t>(self)].count(update_id) != 0) {
      cluster_->node(self).stats().add_named("dsm_update_replays_absorbed");
      cluster_->reply(in, home_ack(self));
      return;
    }
  }
  // Streaming apply: no per-message item vector (zero-allocation path).
  NodeDsm& nd = node_dsm(self);
  bool stale = false;
  std::size_t bytes = 0;
  mig_batch_.clear();
  const std::size_t count = Src::decode_each(in.reader, [&](Gva addr, const void* src,
                                                            std::uint32_t len) {
    const PageId pg = layout_.page_of(addr);
    if (!nd.is_home(pg)) {
      // Stale-home straggler (one group never mixes pages with different
      // routing fates, so the whole message is stale together): keep
      // consuming the reader, NACK below.
      HYP_CHECK_MSG(ha_ != nullptr || migrations_enabled(), "update reached a non-home node");
      stale = true;
      return;
    }
    std::memcpy(nd.arena() + addr, src, len);
    bytes += len;
    if (migrations_enabled()) {
      // Per-page byte subtotals for the dominant-writer tracker (fed after
      // the whole message has applied — migrating mid-decode would misroute
      // the remaining items).
      auto it = mig_batch_.begin();
      while (it != mig_batch_.end() && it->first != pg) ++it;
      if (it == mig_batch_.end()) {
        mig_batch_.emplace_back(pg, len);
      } else {
        it->second += len;
      }
    }
  });
  if (stale) {
    nack_stale(in, self, Src::kService);
    return;
  }
  // Record only on actual apply: a NACKed straggler was NOT applied here, and
  // must stay replayable in case a later promotion makes this node home.
  if (update_id != 0) applied_updates_[static_cast<std::size_t>(self)].insert(update_id);
  // Home state changed: incremental checkpoint traffic to the backup,
  // piggybacked on this very update (docs/RECOVERY.md).
  if (ha_ != nullptr && bytes != 0) ha_->note_checkpoint(self, bytes);
  for (const auto& pr : mig_batch_) note_remote_update(self, pr.first, in.from, pr.second);
  mig_batch_.clear();
  const Time done_at =
      cluster_->node(self).extend_service(Src::apply_cost(cluster_->params().cpu, count, bytes));
  // Home-side confirmation of the flush; pairs with the sender's kUpdateSent
  // for cross-node Perfetto flow arrows (docs/OBSERVABILITY.md).
  cluster_->trace_event(self, cluster::TraceKind::kUpdateApplied, in.from,
                        static_cast<std::int64_t>(Src::applied_arg(count, bytes)));
  cluster_->reply(in, home_ack(self), done_at - cluster_->engine().now());
}

// ---------------------------------------------------------------------------
// hybrid: heat-driven home migration (docs/PROTOCOLS.md §hybrid)

void DsmSystem::note_remote_update(NodeId self, PageId p, NodeId from, std::uint64_t bytes) {
  if (from < 0 || from == self) return;
  MigStat& st = mig_[p];
  const std::uint64_t e = cluster_->engine().now() / kMigEpoch;
  if (e != st.epoch) {
    // Close the open window. A clear byte-majority survivor extends the
    // dominance streak only across strictly consecutive epochs — idle gaps
    // break it, so sporadic traffic never accumulates into a migration.
    const bool dom = st.cand >= 0 && st.total >= kMigMinBytes &&
                     st.weight * 2 > static_cast<std::int64_t>(st.total);
    if (!dom || e != st.epoch + 1) {
      st.streak = 0;
      st.last_dom = -1;
    }
    if (dom) {
      if (st.cand == st.last_dom) {
        ++st.streak;
      } else {
        st.last_dom = st.cand;
        st.streak = 1;
      }
    }
    const NodeId target = st.last_dom;
    const bool fire = st.streak >= kMigStreak && target >= 0;
    st.epoch = e;
    st.cand = -1;
    st.weight = 0;
    st.total = 0;
    if (fire) {
      st.streak = 0;
      st.last_dom = -1;
      maybe_migrate(self, p, target);
      if (effective_home_of_page(p) != self) return;  // moved: tracking restarts there
    }
  }
  // Weighted Boyer–Moore vote into the open window: the survivor of
  // byte-weighted pairwise cancellation is the only possible majority writer;
  // the margin test at window close rejects accidental survivors.
  st.total += bytes;
  if (st.cand == from) {
    st.weight += static_cast<std::int64_t>(bytes);
  } else if (st.weight >= static_cast<std::int64_t>(bytes)) {
    st.weight -= static_cast<std::int64_t>(bytes);
  } else {
    st.weight = static_cast<std::int64_t>(bytes) - st.weight;
    st.cand = from;
  }
}

void DsmSystem::maybe_migrate(NodeId self, PageId p, NodeId target) {
  if (target < 0 || target >= cluster_->node_count() || target == self) return;
  if (effective_home_of_page(p) != self) return;  // routing changed under us
  const auto& f = cluster_->params().fault;
  const Time now = cluster_->engine().now();
  // Never migrate toward a node that is (or is about to be) unavailable, nor
  // across an open cut — the handoff below is synchronous in the model.
  if (ha_ != nullptr && (ha_->confirmed_dead(target) || ha_->suspected(target))) return;
  if (f.crash_release(target, now) != 0) return;
  if (f.severed(self, target, now) || f.severed(target, self, now)) return;

  hand_over_page(p, self, target);
  node_dsm(self).demote_home(p, p + 1);
  home_override_[p] = target;
  mig_[p] = MigStat{};

  ++home_migrations_;
  cluster_->node(self).stats().add_named("dsm_home_migrations");
  // Handoff cost: one page copy out of the old home's service queue and one
  // into the new one's. The transfer itself rides the modeled checkpoint
  // path (the same global-metadata idealization as quorum reads).
  const std::size_t page_bytes = layout_.page_bytes();
  const auto& cpu = cluster_->params().cpu;
  cluster_->node(self).extend_service(cpu.copy_cost(page_bytes));
  cluster_->node(target).extend_service(cpu.copy_cost(page_bytes));
  if (ha_ != nullptr) ha_->note_checkpoint(target, page_bytes);
}

void DsmSystem::hand_over_page(PageId p, NodeId from, NodeId to) {
  NodeDsm& src = node_dsm(from);
  NodeDsm& dst = node_dsm(to);
  const std::size_t page_bytes = layout_.page_bytes();
  // If `to` holds a pf-mode replica, its unflushed local writes (cur != twin
  // words) survive: only clean words take the home's bytes (cf.
  // HaManager::move_zone preserving the backup's pending diffs).
  if (dst.has_twin(p)) {
    std::byte* cur = dst.page_ptr(p);
    const std::byte* twin = dst.twin(p);
    for (std::size_t w = 0; w < page_bytes / 8; ++w) {
      if (load_word(cur, w) == load_word(twin, w)) {
        std::memcpy(cur + w * 8, src.page_ptr(p) + w * 8, 8);
      }
    }
  } else {
    std::memcpy(dst.page_ptr(p), src.page_ptr(p), page_bytes);
  }
  dst.promote_to_home(p, p + 1);
  // Unflushed ic-mode stores of `to`'s threads stay visible as well.
  const Gva begin = layout_.page_base(p);
  replay_logged_writes(to, begin, begin + page_bytes);
  cluster_->trace_event(from, cluster::TraceKind::kHomeMigrated, p, to);
  // Co-located state (the monitor tables) follows the page.
  if (home_moved_) home_moved_(from, to, begin, begin + page_bytes);
}

void DsmSystem::on_node_dead(NodeId dead) {
  if (home_override_.empty()) return;
  NodeDsm& dnd = node_dsm(dead);
  for (std::size_t i = 0; i < home_override_.size(); ++i) {
    if (home_override_[i] != dead) continue;
    const PageId p = static_cast<PageId>(i);
    home_override_[i] = -1;
    mig_[i] = MigStat{};
    // Strip the dead node's authority now: when it restarts it must NACK
    // stragglers for pages it no longer serves (demote leaves the arena
    // bytes — the mirrored replica state — intact).
    dnd.demote_home(p, p + 1);
    const NodeId back = effective_home_of_page(p);
    if (back == dead) continue;  // its own zone: confirm_death's failover realizes it
    // Re-realize the page at the fallback home from the dead node's
    // replicated state, preserving the fallback's own unflushed writes.
    hand_over_page(p, dead, back);
    cluster_->node(back).stats().add_named("dsm_migrations_reverted");
  }
}

}  // namespace hyp::dsm
