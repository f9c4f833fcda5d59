#pragma once

#include <array>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mem/memory_map.h"
#include "sim/stats.h"

/// \file cache.h
/// L1 cache model for MEDEA processing elements and the MPMMU.
///
/// The paper sweeps cache size between 2 kB and 64 kB (powers of two) and
/// compares Write-Back against Write-Through policies on 16-byte lines
/// (a miss triggers a block read of four 32-bit words, §II-B).
///
/// This model is functional + structural: it holds real data, real tags
/// and real dirty bits, and reports exactly which memory transactions the
/// surrounding hardware must perform (fill, writeback, write-through).
/// Timing is the caller's job — the pif2NoC bridge turns the reported
/// transactions into NoC traffic with real latency.
///
/// Policies:
///  * Write-Back: write-allocate; dirty victim lines produce a block
///    writeback on eviction; explicit flush-line supports the paper's
///    software coherence discipline (flush before unlock).
///  * Write-Through: no-allocate on write miss; every store also goes to
///    memory; lines are never dirty.
///
/// Explicit line operations (Xtensa-style):
///  * flush_line  (DHWB):  write back if dirty, keep valid.
///  * invalidate_line (DII): drop the line without writeback.

namespace medea::mem {

enum class WritePolicy : std::uint8_t { kWriteBack, kWriteThrough };

inline const char* to_string(WritePolicy p) {
  return p == WritePolicy::kWriteBack ? "WB" : "WT";
}

struct CacheConfig {
  std::uint32_t size_bytes = 16 * 1024;
  std::uint32_t line_bytes = kLineBytes;  ///< fixed at 16 in this model
  std::uint32_t ways = 2;                 ///< Xtensa-typical 2-way LRU
  WritePolicy policy = WritePolicy::kWriteBack;

  std::uint32_t num_lines() const { return size_bytes / line_bytes; }
  std::uint32_t num_sets() const { return num_lines() / ways; }

  /// Throws std::invalid_argument naming `field` (e.g. "l1") unless the
  /// geometry is one the model can index: 16-byte lines, at least one
  /// way, and a power-of-two number of whole sets.
  void validate(const std::string& field) const;
};

using LineData = std::array<std::uint32_t, kWordsPerLine>;

/// Memory transaction the cache asks its owner to perform.
struct Writeback {
  Addr line_addr = 0;
  LineData data{};
};

class Cache {
 public:
  explicit Cache(const CacheConfig& cfg);

  const CacheConfig& config() const { return cfg_; }

  // ------------------------------------------------------------------
  // Lookups (no state change)
  // ------------------------------------------------------------------
  bool contains(Addr addr) const { return find(addr) != nullptr; }
  bool line_dirty(Addr addr) const {
    const Line* l = find(addr);
    return l != nullptr && l->dirty;
  }

  // ------------------------------------------------------------------
  // Accesses
  // ------------------------------------------------------------------

  /// Read one word.  Returns the value on hit; nullopt on miss (the owner
  /// must obtain the line and call fill_line, then retry or use the fill
  /// data directly).
  std::optional<std::uint32_t> read_word(Addr addr);

  /// Write one word.
  ///  * WB policy: on hit, updates and dirties the line, returns true.
  ///    On miss returns false — the owner must fill (write-allocate) and
  ///    retry.
  ///  * WT policy: updates the line only on hit (no-allocate); always
  ///    returns true because the store itself always proceeds to memory
  ///    (the owner must independently issue the write-through).
  bool write_word(Addr addr, std::uint32_t value);

  /// Install a line fetched from memory.  Returns the victim writeback
  /// if a dirty line had to be evicted (WB only).
  std::optional<Writeback> fill_line(Addr line_addr, const LineData& data);

  /// Stat-free accessors used by the owner immediately after fill_line to
  /// complete the access that missed (the miss was already counted; the
  /// retry must not be).  The line must be present.
  std::uint32_t peek_word(Addr addr);
  void poke_word(Addr addr, std::uint32_t value, bool mark_dirty);

  /// DHWB: write back the line if present and dirty (cleared to clean).
  std::optional<Writeback> flush_line(Addr addr);

  /// DII: drop the line, discarding any dirty data (the paper's consumer-
  /// side invalidate; software guarantees no dirty data is lost).
  void invalidate_line(Addr addr);

  /// Invalidate everything (reset / full DII sweep).
  void invalidate_all();

  /// Write back every dirty line (cleared to clean).  Used by the MPMMU
  /// backdoor when tests/verifiers want a coherent view of the backing
  /// store, and by full-flush software sequences.
  std::vector<Writeback> flush_all();

  sim::StatSet& stats() { return stats_; }
  const sim::StatSet& stats() const { return stats_; }

  /// Hit ratio over all read+write accesses so far (for reports).
  double hit_rate() const;

 private:
  // All-zero bytes are the default line (invalid, clean): see lines_.
  struct Line {
    bool valid = false;
    bool dirty = false;
    Addr tag = 0;  // full line address used as tag (simple and exact)
    std::uint64_t lru = 0;
    LineData data{};
  };

  std::uint32_t set_index(Addr addr) const {
    return (line_align(addr) / cfg_.line_bytes) % cfg_.num_sets();
  }

  const Line* find(Addr addr) const;
  Line* find(Addr addr);
  Line& victim(Addr addr);

  CacheConfig cfg_;
  // sets * ways, row-major by set.  Allocated zeroed by calloc rather
  // than value-initialized, so the pages of sets a run never touches are
  // never faulted in: a 64 kB L1 on a few-kB working set stays mostly
  // cold, and eagerly zeroing it dominated system construction.
  struct FreeLines {
    void operator()(Line* p) const { std::free(p); }
  };
  std::unique_ptr<Line[], FreeLines> lines_;
  std::uint64_t access_clock_ = 0;
  sim::StatSet stats_;
  // Handles into stats_ resolved once; every access bumps one of these,
  // so the per-access string-keyed lookup matters (it showed up in
  // bench_sim_speed profiles).
  sim::Stat& st_read_hits_ = stats_.counter("cache.read_hits");
  sim::Stat& st_read_misses_ = stats_.counter("cache.read_misses");
  sim::Stat& st_write_hits_ = stats_.counter("cache.write_hits");
  sim::Stat& st_write_misses_ = stats_.counter("cache.write_misses");
  sim::Stat& st_writebacks_ = stats_.counter("cache.writebacks");
  sim::Stat& st_evictions_ = stats_.counter("cache.evictions");
  sim::Stat& st_fills_ = stats_.counter("cache.fills");
};

}  // namespace medea::mem
