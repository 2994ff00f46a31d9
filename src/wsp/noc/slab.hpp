// Flat storage for the NoC transaction layer: a chunked slab and an
// open-addressing hash index.
//
// The transaction layer touches three tables on every packet: queued
// packets (waiting to be injected), live transactions (looked up by id on
// each ejection and timeout) and memoised route plans (looked up by
// (src, dst) tile pair on each issue).  Each keeps its records in a Slab
// and, where it needs a key lookup, a FlatIndex from key to slab slot.  A
// lookup is one multiplicative hash plus a short linear probe through one
// flat array, and neither structure allocates once it has grown to the
// run's working size.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace wsp::noc {

/// Growable array stored in fixed chunks.  Growth never moves an element,
/// so references stay valid until clear(), and a long run leaves no
/// outgrown buffers behind in the allocator: memory follows the peak
/// element count.
template <typename T>
class Slab {
 public:
  static constexpr std::size_t kChunk = 1024;

  T& operator[](std::size_t i) { return chunks_[i / kChunk][i % kChunk]; }
  const T& operator[](std::size_t i) const {
    return chunks_[i / kChunk][i % kChunk];
  }
  std::size_t size() const { return size_; }

  /// Appends `v` and returns its index.
  std::size_t push_back(const T& v) {
    if (size_ == chunks_.size() * kChunk)
      chunks_.push_back(std::make_unique<T[]>(kChunk));
    (*this)[size_] = v;
    return size_++;
  }

  /// Drops every element and releases the chunks.
  void clear() {
    chunks_.clear();
    size_ = 0;
  }

 private:
  std::vector<std::unique_ptr<T[]>> chunks_;
  std::size_t size_ = 0;
};

/// Open-addressing hash index from a 64-bit key to a 32-bit slot number.
/// The table is a power of two and kept at most half full.  Erase shifts
/// the following probe run back into the hole (no tombstones), so long
/// runs of insert/erase churn never lengthen the probes.
class FlatIndex {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// Slot stored for `key`, or kNone.
  std::uint32_t find(std::uint64_t key) const {
    if (size_ == 0) return kNone;
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      const Entry& e = table_[i];
      if (e.slot == kNone) return kNone;
      if (e.key == key) return e.slot;
    }
  }

  /// Adds key -> slot; `key` must not be present and `slot` != kNone.
  void insert(std::uint64_t key, std::uint32_t slot) {
    if (2 * (size_ + 1) > table_.size()) grow();
    place(key, slot);
    ++size_;
  }

  /// Removes `key` and returns its slot, or kNone when it was absent.
  std::uint32_t erase(std::uint64_t key) {
    if (size_ == 0) return kNone;
    std::size_t hole = home(key);
    for (;; hole = (hole + 1) & mask_) {
      if (table_[hole].slot == kNone) return kNone;
      if (table_[hole].key == key) break;
    }
    const std::uint32_t slot = table_[hole].slot;
    // Backward-shift deletion: pull every later entry of the probe run
    // whose home does not lie cyclically in (hole, i] into the hole.
    for (std::size_t i = (hole + 1) & mask_; table_[i].slot != kNone;
         i = (i + 1) & mask_) {
      const std::size_t h = home(table_[i].key);
      if (((i - h) & mask_) >= ((i - hole) & mask_)) {
        table_[hole] = table_[i];
        hole = i;
      }
    }
    table_[hole].slot = kNone;
    --size_;
    return slot;
  }

  /// Drops every entry and keeps the table's capacity.
  void clear() {
    for (Entry& e : table_) e.slot = kNone;
    size_ = 0;
  }

  std::size_t size() const { return size_; }

 private:
  struct Entry {
    std::uint64_t key = 0;
    std::uint32_t slot = kNone;  ///< kNone marks an empty cell
  };

  std::vector<Entry> table_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
  int shift_ = 64;  ///< 64 - log2(table size)

  std::size_t home(std::uint64_t key) const {
    // Fibonacci hashing: ids and tile-pair keys are dense and sequential,
    // the top bits of the product spread them over the whole table.
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  void place(std::uint64_t key, std::uint32_t slot) {
    std::size_t i = home(key);
    while (table_[i].slot != kNone) i = (i + 1) & mask_;
    table_[i] = Entry{key, slot};
  }

  void grow() {
    std::vector<Entry> old;
    old.swap(table_);
    const std::size_t cap = old.empty() ? 16 : 2 * old.size();
    table_.assign(cap, Entry{});
    mask_ = cap - 1;
    shift_ = 64 - std::countr_zero(cap);
    for (const Entry& e : old)
      if (e.slot != kNone) place(e.key, e.slot);
  }
};

}  // namespace wsp::noc
