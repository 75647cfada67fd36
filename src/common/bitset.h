#ifndef TCQ_COMMON_BITSET_H_
#define TCQ_COMMON_BITSET_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/logging.h"
#include "common/object_pool.h"

namespace tcq {

/// A dynamic bitset with small-size optimization: sets of up to 128 bits
/// (two words) live inline with no heap allocation. Tuple lineage in CACQ
/// attaches three of these to every in-flight tuple, so the common case
/// (≤128 concurrent queries / modules) must be allocation-free.
class SmallBitset {
 public:
  SmallBitset() = default;
  /// Constructs an all-zero set able to hold `nbits` bits.
  explicit SmallBitset(size_t nbits) { Resize(nbits); }

  SmallBitset(const SmallBitset&) = default;
  SmallBitset& operator=(const SmallBitset&) = default;
  SmallBitset(SmallBitset&&) = default;
  SmallBitset& operator=(SmallBitset&&) = default;

  size_t size_bits() const { return nbits_; }

  /// Grows (or shrinks) capacity; newly exposed bits are zero.
  void Resize(size_t nbits) {
    const size_t words = WordsFor(nbits);
    if (words > kInlineWords) {
      overflow_.resize(words - kInlineWords, 0);
    } else {
      overflow_.clear();
    }
    // Clear any bits beyond the new size in the last word.
    nbits_ = nbits;
    ClearTail();
  }

  void Set(size_t i) {
    TCQ_DCHECK(i < nbits_);
    WordAt(i / 64) |= (uint64_t{1} << (i % 64));
  }
  void Clear(size_t i) {
    TCQ_DCHECK(i < nbits_);
    WordAt(i / 64) &= ~(uint64_t{1} << (i % 64));
  }
  bool Test(size_t i) const {
    TCQ_DCHECK(i < nbits_);
    return (WordAt(i / 64) >> (i % 64)) & 1;
  }

  void SetAll() {
    for (size_t w = 0; w < WordsFor(nbits_); ++w) WordAt(w) = ~uint64_t{0};
    ClearTail();
  }
  void ClearAll() {
    for (size_t w = 0; w < WordsFor(nbits_); ++w) WordAt(w) = 0;
  }

  /// Number of set bits.
  size_t Count() const {
    size_t n = 0;
    for (size_t w = 0; w < WordsFor(nbits_); ++w)
      n += static_cast<size_t>(__builtin_popcountll(WordAt(w)));
    return n;
  }

  /// True iff no bit is set. Early-exits on the first non-zero word —
  /// this runs per tuple in lineage checks, where the common answer is
  /// "no" in word zero.
  bool None() const {
    for (size_t w = 0; w < WordsFor(nbits_); ++w) {
      if (WordAt(w) != 0) return false;
    }
    return true;
  }

  /// True iff every bit is set (and the set is non-empty). Early-exits
  /// on the first non-full word; the tail word is compared against its
  /// partial mask (tail bits above nbits_ are kept zero by ClearTail).
  bool All() const {
    if (nbits_ == 0) return false;
    const size_t words = WordsFor(nbits_);
    for (size_t w = 0; w + 1 < words; ++w) {
      if (WordAt(w) != ~uint64_t{0}) return false;
    }
    const uint64_t tail_mask = nbits_ % 64 == 0
                                   ? ~uint64_t{0}
                                   : (uint64_t{1} << (nbits_ % 64)) - 1;
    return WordAt(words - 1) == tail_mask;
  }

  /// True if every bit set in `other` is also set in *this.
  bool Contains(const SmallBitset& other) const {
    TCQ_DCHECK(nbits_ == other.nbits_);
    for (size_t w = 0; w < WordsFor(nbits_); ++w) {
      if ((other.WordAt(w) & ~WordAt(w)) != 0) return false;
    }
    return true;
  }

  /// True if *this and `other` share at least one set bit.
  bool Intersects(const SmallBitset& other) const {
    TCQ_DCHECK(nbits_ == other.nbits_);
    for (size_t w = 0; w < WordsFor(nbits_); ++w) {
      if ((other.WordAt(w) & WordAt(w)) != 0) return true;
    }
    return false;
  }

  SmallBitset& operator|=(const SmallBitset& other) {
    TCQ_DCHECK(nbits_ == other.nbits_);
    for (size_t w = 0; w < WordsFor(nbits_); ++w) WordAt(w) |= other.WordAt(w);
    return *this;
  }
  SmallBitset& operator&=(const SmallBitset& other) {
    TCQ_DCHECK(nbits_ == other.nbits_);
    for (size_t w = 0; w < WordsFor(nbits_); ++w) WordAt(w) &= other.WordAt(w);
    return *this;
  }
  /// Removes from *this every bit set in `other`.
  SmallBitset& operator-=(const SmallBitset& other) {
    TCQ_DCHECK(nbits_ == other.nbits_);
    for (size_t w = 0; w < WordsFor(nbits_); ++w) WordAt(w) &= ~other.WordAt(w);
    return *this;
  }

  /// Ands each of the first `words` words of *this (at most its own)
  /// with `mask(w)`; the words past them are untouched. The hot form of
  /// GroupedFilter::Apply: one fused pass over the filter's words, where
  /// the candidate lineage bitmap may be wider than the filter's query
  /// table. An and never sets a bit, so bits >= size_bits() stay zero.
  template <typename MaskFn>
  void AndWords(size_t words, MaskFn&& mask) {
    TCQ_DCHECK(words <= WordsFor(nbits_));
    const size_t inline_words = words < kInlineWords ? words : kInlineWords;
    for (size_t w = 0; w < inline_words; ++w) inline_[w] &= mask(w);
    uint64_t* spill = overflow_.data();
    for (size_t w = kInlineWords; w < words; ++w) {
      spill[w - kInlineWords] &= mask(w);
    }
  }

  bool operator==(const SmallBitset& other) const {
    if (nbits_ != other.nbits_) return false;
    for (size_t w = 0; w < WordsFor(nbits_); ++w) {
      if (WordAt(w) != other.WordAt(w)) return false;
    }
    return true;
  }

  /// Index of the first set bit, or size_bits() if none.
  size_t FirstSet() const {
    for (size_t w = 0; w < WordsFor(nbits_); ++w) {
      uint64_t word = WordAt(w);
      if (word != 0) {
        return w * 64 + static_cast<size_t>(__builtin_ctzll(word));
      }
    }
    return nbits_;
  }

  /// Index of the first set bit at position >= from, or size_bits() if none.
  size_t NextSet(size_t from) const {
    if (from >= nbits_) return nbits_;
    size_t w = from / 64;
    uint64_t word = WordAt(w) & (~uint64_t{0} << (from % 64));
    while (true) {
      if (word != 0) {
        return w * 64 + static_cast<size_t>(__builtin_ctzll(word));
      }
      ++w;
      if (w >= WordsFor(nbits_)) return nbits_;
      word = WordAt(w);
    }
  }

  /// Calls fn(index) for every set bit in ascending order.
  template <typename Fn>
  void ForEachSet(Fn&& fn) const {
    for (size_t i = FirstSet(); i < nbits_; i = NextSet(i + 1)) fn(i);
  }

 private:
  static constexpr size_t kInlineWords = 2;

  static size_t WordsFor(size_t nbits) { return (nbits + 63) / 64; }

  uint64_t& WordAt(size_t w) {
    return w < kInlineWords ? inline_[w] : overflow_[w - kInlineWords];
  }
  const uint64_t& WordAt(size_t w) const {
    return w < kInlineWords ? inline_[w] : overflow_[w - kInlineWords];
  }

  /// Zeroes bits at positions >= nbits_ in the last word so that Count()
  /// and equality never see stale garbage after shrink/SetAll.
  void ClearTail() {
    if (nbits_ % 64 == 0) return;
    const size_t last = WordsFor(nbits_) - 1;
    WordAt(last) &= (uint64_t{1} << (nbits_ % 64)) - 1;
  }

  uint64_t inline_[kInlineWords] = {0, 0};
  /// Overflow words (>128 bits) come from the thread-local BlockPool:
  /// at >128 concurrent queries every in-flight RoutedTuple carries
  /// three spilled lineage bitsets, and copying/destroying them per
  /// tuple must not hit the system allocator (DESIGN.md §14).
  std::vector<uint64_t, PoolAllocator<uint64_t>> overflow_;
  size_t nbits_ = 0;
};

}  // namespace tcq

#endif  // TCQ_COMMON_BITSET_H_
