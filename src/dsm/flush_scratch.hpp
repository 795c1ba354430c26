// Reusable per-thread state of the update pipeline, plus its twin-diff
// scanner.
//
// updateMainMemory runs at EVERY monitor entry/exit (§3.1), so its host cost
// is paid millions of times per paper-size run. DsmSystem's one update
// pipeline (collect -> route -> ship, docs/PROTOCOLS.md §update pipeline)
// keeps its working sets on the ThreadCtx and recycles them, so a warm flush
// never touches the allocator:
//
//   * a generation-stamped open-addressing dedup table (addr -> index) that
//     makes the write log last-writer-wins in first-touch order;
//   * per item source (write-log entries, twin-diff runs) one ItemQueue: the
//     collected items plus the router's cohort/rest splits and group ends;
//   * one append-only arena holding every diff run's payload bytes (runs
//     store offsets, not pointers, so arena growth is harmless).
//
// Nothing here is visible in simulated time: the scratch only changes how
// fast the host computes the same messages (docs/PERFORMANCE.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/assert.hpp"
#include "dsm/address.hpp"
#include "dsm/write_log.hpp"

namespace hyp::dsm {

// Both the arena page and the twin are at least 8-byte aligned; memcpy of a
// u64 compiles to one plain load.
inline std::uint64_t load_word(const std::byte* base, std::size_t w) {
  std::uint64_t v;
  std::memcpy(&v, base + w * 8, 8);
  return v;
}

// The twin-diff scanner shared by every twin-based protocol: calls
// emit(first_word, end_word) for each maximal run of 8-byte words where
// `cur` differs from `twin`, in address order, and returns the number of
// modified words. Clean 64-byte chunks are skipped with one OR-of-XORs test;
// a chunk is skipped only when all eight words match, so run boundaries are
// exactly those of a word-at-a-time compare.
template <typename Emit>
std::size_t scan_diff_runs(const std::byte* cur, const std::byte* twin, std::size_t words,
                           Emit&& emit) {
  std::size_t modified = 0;
  std::size_t w = 0;
  while (w < words) {
    if ((w & 7) == 0 && w + 8 <= words) {
      std::uint64_t acc = 0;
      for (std::size_t k = 0; k < 8; ++k) acc |= load_word(cur, w + k) ^ load_word(twin, w + k);
      if (acc == 0) {
        w += 8;
        continue;
      }
    }
    if (load_word(cur, w) == load_word(twin, w)) {
      ++w;
      continue;
    }
    const std::size_t begin = w;
    while (w < words && load_word(cur, w) != load_word(twin, w)) ++w;
    modified += w - begin;
    emit(begin, w);
  }
  return modified;
}

// Open-addressing hash table: Gva -> index in the pending vector, cleared in
// O(1) by bumping a generation stamp. Linear probing, power-of-two capacity
// kept at least 2x the expected entry count.
class IcDedupTable {
 public:
  struct Slot {
    Gva addr = 0;
    std::uint32_t gen = 0;
    std::uint32_t index = 0;
  };

  // Starts a new flush expecting up to `expected` distinct addresses.
  void begin(std::size_t expected) {
    std::size_t want = 16;
    while (want < expected * 2) want <<= 1;
    if (want > slots_.size()) {
      slots_.assign(want, Slot{});
      gen_ = 0;
    }
    if (++gen_ == 0) {  // stamp wrapped: wipe and restart
      for (Slot& s : slots_) s.gen = 0;
      gen_ = 1;
    }
    mask_ = slots_.size() - 1;
  }

  // Returns the slot for `addr`; `*fresh` reports whether it was vacant.
  // The caller fills the index on fresh insertion.
  Slot* find_or_insert(Gva addr, bool* fresh) {
    std::size_t i = hash(addr) & mask_;
    while (true) {
      Slot& s = slots_[i];
      if (s.gen != gen_) {  // vacant this generation
        s.addr = addr;
        s.gen = gen_;
        *fresh = true;
        return &s;
      }
      if (s.addr == addr) {
        *fresh = false;
        return &s;
      }
      i = (i + 1) & mask_;
    }
  }

  std::size_t capacity() const { return slots_.size(); }

 private:
  static std::size_t hash(Gva a) {
    // Fibonacci scrambling; addresses are 8-byte aligned so mix the high bits.
    return static_cast<std::size_t>((a >> 3) * 0x9E3779B97F4A7C15ull >> 17);
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::uint32_t gen_ = 0;
};

// One modified-word run found by the twin diff: `len` payload bytes at
// `offset` in the shared `run_bytes` arena, destined for `addr`.
struct DiffRun {
  Gva addr;
  std::uint32_t offset;
  std::uint32_t len;
};

// One item source's routing state. `pending` holds the collected items in
// first-touch order. The ascending router counting-sorts them into `rest`,
// leaving ends[k] = the end of key k's group; the migration-aware router
// splits `pending` into the `cohort` it ships next and the `rest`.
template <typename Item>
struct ItemQueue {
  std::vector<Item> pending, cohort, rest;
  std::vector<std::uint32_t> ends;

  void clear() {
    pending.clear();
    cohort.clear();
    rest.clear();
    ends.clear();
  }
};

struct FlushScratch {
  IcDedupTable dedup;
  ItemQueue<WriteLogEntry> fields;
  ItemQueue<DiffRun> runs;
  std::vector<std::byte> run_bytes;  // shared payload arena, reset per flush

  // Clears every source for a new flush without releasing capacity.
  void begin(std::size_t expected_entries) {
    dedup.begin(expected_entries);
    fields.clear();
    runs.clear();
    run_bytes.clear();
  }
};

}  // namespace hyp::dsm
