// erc: eager release consistency (Munin-style write-update) — the third
// protocol of the library, rounding out DSM-PM2's advertised family
// ("various consistency models, such as sequential and release
// consistency", §1).
//
// Like the Java protocols it is home-based with per-node page caches and
// twins; the difference is the propagation discipline:
//   * release: diff the dirty pages and push the modified words to the home,
//     which applies them and *forwards the update to every other sharer* —
//     replicas are patched in place, eagerly;
//   * acquire: nothing at all (no invalidation) — the eager pushes are what
//     keep readers fresh.
// The trade: releases cost O(sharers) messages, acquires are free, and
// read-mostly replicas never refetch. Contrast with java_ic/java_pf (lazy
// invalidate: cheap release fan-out, whole-cache invalidation at acquire)
// in bench/ablation_consistency.
//
// Ordering: updates serialize through the home; forwarded updates for
// concurrent racy writes may reach different sharers in different orders
// (data-race-free programs never observe this).
#pragma once

#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/service_ids.hpp"
#include "common/node_set.hpp"
#include "dsm/address.hpp"
#include "dsm/node_dsm.hpp"
#include "dsm/write_log.hpp"

namespace hyp::dsm {

class ErcDsm;

struct ErcThreadCtx {
  ErcDsm* dsm = nullptr;
  NodeId node = -1;
  std::byte* base = nullptr;
  cluster::CpuClock clock;
  Stats* stats = nullptr;
  Time check_cost = 0;
  // Writes to our own home pages land in the master copy immediately but
  // must still be pushed to the sharers at release (write-update has no
  // "lazy" fallback); they are recorded here with field granularity.
  WriteLog home_log;

  explicit ErcThreadCtx(const cluster::CpuParams* cpu) : clock(cpu) {}
};

class ErcDsm {
 public:
  ErcDsm(cluster::Cluster* cluster, std::size_t region_bytes);

  const Layout& layout() const { return layout_; }
  Gva alloc(NodeId node, std::size_t bytes, std::size_t align = 8);
  std::unique_ptr<ErcThreadCtx> make_thread(NodeId node);

  template <typename T>
  T read(ErcThreadCtx& t, Gva a) {
    t.clock.charge(t.check_cost);
    t.stats->add(Counter::kInlineChecks);
    const PageId p = layout_.page_of(a);
    if (!node_dsm(t.node).present(p)) [[unlikely]] {
      fetch(t, p);
    }
    T v;
    std::memcpy(&v, t.base + a, sizeof(T));
    return v;
  }

  template <typename T>
  void write(ErcThreadCtx& t, Gva a, T v) {
    t.clock.charge(t.check_cost);
    t.stats->add(Counter::kInlineChecks);
    const PageId p = layout_.page_of(a);
    if (!node_dsm(t.node).present(p)) [[unlikely]] {
      fetch(t, p);
    }
    std::memcpy(t.base + a, &v, sizeof(T));
    if (node_dsm(t.node).is_home(p)) {
      std::uint64_t raw = 0;
      std::memcpy(&raw, &v, sizeof(T));
      t.home_log.record(a, sizeof(T), raw);
      t.stats->add(Counter::kWriteLogEntries);
    }
  }

  // Release: diff + eager push to home and all sharers (blocks for acks).
  void on_release(ErcThreadCtx& t);
  // Acquire: free (plus materializing batched compute).
  void on_acquire(ErcThreadCtx& t) { t.clock.flush(); }

  NodeDsm& node_dsm(NodeId n) { return *nodes_[static_cast<std::size_t>(n)]; }

  template <typename T>
  T read_home(Gva a) const {
    const NodeId home = layout_.home_of(a);
    T v;
    std::memcpy(&v, nodes_[static_cast<std::size_t>(home)]->arena() + a, sizeof(T));
    return v;
  }
  template <typename T>
  void poke_home(Gva a, T v) {
    const NodeId home = layout_.home_of(a);
    std::memcpy(nodes_[static_cast<std::size_t>(home)]->arena() + a, &v, sizeof(T));
  }

  // Sharers of a page, in first-fetch order (test introspection).
  const NodeSet& sharers(PageId p) const { return sharers_[p]; }

 private:
  void fetch(ErcThreadCtx& t, PageId p);
  void handle_fetch(cluster::Incoming& in, NodeId self);
  void handle_release(cluster::Incoming& in, NodeId self);
  void handle_update(cluster::Incoming& in, NodeId self);
  void handle_update_ack(cluster::Incoming& in, NodeId self);

  struct PendingRelease {
    NodeId releaser;
    std::uint64_t reply_token;
    int acks_outstanding = 0;
  };

  cluster::Cluster* cluster_;
  Layout layout_;
  std::vector<std::unique_ptr<NodeDsm>> nodes_;
  std::vector<NodeSet> sharers_;  // [page] -> non-home replica holders
  std::map<std::uint64_t, PendingRelease> pending_;  // release id -> state
  std::uint64_t next_release_id_ = 1;
};

}  // namespace hyp::dsm
