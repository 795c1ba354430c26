// seqc: a sequentially-consistent, single-writer protocol over the same
// substrate — the DSM-PM2 "protocol library" claim made concrete.
//
// The paper builds its two Java protocols on DSM-PM2 precisely because the
// platform hosts *multiple* consistency protocols ("full support for
// implementing various consistency protocols, such as sequential and
// release consistency", §1). This module is the classic Li/Hudak-style
// protocol on our cluster model:
//
//   * every home page has a directory entry: either a set of read replicas
//     (copyset) or one exclusive writer;
//   * a read miss fetches a read-only copy and joins the copyset (recalling
//     the page from an exclusive writer first);
//   * a write requires exclusive ownership: the home invalidates every
//     replica (and recalls a foreign writer), then grants ownership;
//   * accesses never see stale data — no monitors required for coherence
//     (unlike Java consistency, where staleness until acquire is the norm).
//
// The directory state machine runs entirely in home-side handlers on the
// simulation's single scheduler thread, so transitions are atomic; requests
// that arrive while a transition is in flight queue on the directory entry.
#pragma once

#include <cstring>
#include <deque>
#include <memory>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/service_ids.hpp"
#include "common/node_set.hpp"
#include "dsm/address.hpp"
#include "dsm/node_dsm.hpp"

namespace hyp::dsm {

enum class SeqMode : std::uint8_t { kInvalid = 0, kRead = 1, kExclusive = 2 };

class SeqDsm;

struct SeqThreadCtx {
  SeqDsm* dsm = nullptr;
  NodeId node = -1;
  std::byte* base = nullptr;
  cluster::CpuClock clock;
  Stats* stats = nullptr;
  Time check_cost = 0;

  explicit SeqThreadCtx(const cluster::CpuParams* cpu) : clock(cpu) {}
};

class SeqDsm {
 public:
  SeqDsm(cluster::Cluster* cluster, std::size_t region_bytes);

  const Layout& layout() const { return layout_; }
  Gva alloc(NodeId node, std::size_t bytes, std::size_t align = 8);
  std::unique_ptr<SeqThreadCtx> make_thread(NodeId node);

  // Access primitives: sequentially consistent, no monitors needed for
  // coherence (mutual exclusion still needs locks, as on real SC hardware).
  //
  // Livelock freedom: a node granted a page always completes at least one
  // access before surrendering it. Reads that lose a grant/invalidate race
  // still consume the granted bytes once (the read linearizes at the grant);
  // writes hold recalls off until the store lands (write_complete).
  template <typename T>
  T read(SeqThreadCtx& t, Gva a) {
    t.clock.charge(t.check_cost);
    t.stats->add(Counter::kInlineChecks);
    const PageId p = layout_.page_of(a);
    if (mode(t.node, p) == SeqMode::kInvalid) [[unlikely]] {
      read_miss(t, p);  // installs the page (possibly only transiently)
    }
    T v;
    std::memcpy(&v, t.base + a, sizeof(T));
    return v;
  }

  template <typename T>
  void write(SeqThreadCtx& t, Gva a, T v) {
    t.clock.charge(t.check_cost);
    t.stats->add(Counter::kInlineChecks);
    const PageId p = layout_.page_of(a);
    const bool missed = mode(t.node, p) != SeqMode::kExclusive;
    if (missed) [[unlikely]] {
      write_miss(t, p);
    }
    std::memcpy(t.base + a, &v, sizeof(T));
    if (missed) [[unlikely]] {
      write_complete(t, p);  // now honor any recall that raced the grant
    }
  }

  SeqMode mode(NodeId node, PageId p) const {
    return modes_[static_cast<std::size_t>(node)][p];
  }

  // Test/debug: the current master copy (home's arena unless a foreign
  // exclusive owner exists — then the owner's arena is authoritative).
  template <typename T>
  T read_master(Gva a) const {
    const PageId p = layout_.page_of(a);
    const Directory& dir = directory_[p];
    const NodeId where = dir.exclusive_owner >= 0 ? dir.exclusive_owner : layout_.home_of(a);
    T v;
    std::memcpy(&v, nodes_[static_cast<std::size_t>(where)]->arena() + a, sizeof(T));
    return v;
  }

 public:
  ~SeqDsm();

 private:
  struct Pending {
    NodeId requester;
    std::uint64_t reply_token;
    bool wants_exclusive;
    sim::Fiber* local_fiber = nullptr;  // home-local requester to unpark
    bool* local_granted = nullptr;
  };
  struct Directory {
    NodeSet copyset;               // nodes holding read replicas (home included
                                   // implicitly: the home copy is the master)
    NodeId exclusive_owner = -1;   // -1 = none (home copy authoritative)
    bool busy = false;             // a recall/invalidate round is in flight
    bool waiting_local_owner = false;  // round stalled on the home's own store
    std::deque<Pending> waiting;
    int acks_outstanding = 0;
    Pending in_service{};          // request being served while busy
  };

  void read_miss(SeqThreadCtx& t, PageId p);
  void write_miss(SeqThreadCtx& t, PageId p);
  void write_complete(SeqThreadCtx& t, PageId p);

  // Home-side machine.
  void handle_request(cluster::Incoming& in, NodeId self, bool exclusive);
  void start_service(NodeId home, PageId p, Pending req);
  void finish_service(NodeId home, PageId p);
  void handle_recall_reply(NodeId home, PageId p, BufferReader& payload);
  void handle_invalidate_ack(NodeId home, PageId p);

  // Client-side handlers.
  void handle_recall(cluster::Incoming& in, NodeId self);
  void handle_invalidate(cluster::Incoming& in, NodeId self);

  void grant(NodeId home, PageId p, const Pending& req);

  // Per-node client-side transient state (grant/invalidate race resolution).
  struct ClientState {
    std::vector<std::uint32_t> inval_version;  // bumped by invalidate/recall
    std::vector<std::uint8_t> recall_pending;  // recall arrived mid-grant
    std::vector<std::uint8_t> recall_drop;     // pending recall invalidates
    // Count of home-local fibers that have been *granted* exclusivity but
    // whose store has not landed yet (bumped at grant, dropped at
    // write_complete). Rounds wanting the page back stall on this.
    std::vector<std::uint32_t> local_excl_pending;
  };
  ClientState& client(NodeId node) { return clients_[static_cast<std::size_t>(node)]; }

  cluster::Cluster* cluster_;
  Layout layout_;
  std::vector<std::unique_ptr<NodeDsm>> nodes_;  // arenas + allocation zones
  std::vector<std::vector<SeqMode>> modes_;      // [node][page]
  std::vector<Directory> directory_;             // [page], used at the home
  std::vector<ClientState> clients_;             // [node]
};

}  // namespace hyp::dsm
