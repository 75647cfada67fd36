#ifndef TCQ_COMMON_FIFO_H_
#define TCQ_COMMON_FIFO_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace tcq {

/// A first-in first-out queue in one vector that keeps its storage: a
/// pop resets the front element and moves a head index, and the vector
/// rewinds when it empties, so a queue that drains allocates nothing in
/// steady state. (std::deque frees a node every few pops and allocates
/// one every few pushes, and an empty one already holds two blocks.)
/// Popped slots are compacted once they are most of the vector.
template <typename T>
class Fifo {
 public:
  using iterator = typename std::vector<T>::iterator;

  bool empty() const { return head_ == items_.size(); }
  size_t size() const { return items_.size() - head_; }
  T& front() { return items_[head_]; }
  T& back() { return items_.back(); }
  T& operator[](size_t i) { return items_[head_ + i]; }
  iterator begin() { return items_.begin() + static_cast<std::ptrdiff_t>(head_); }
  iterator end() { return items_.end(); }

  void push_back(T&& v) { items_.push_back(std::move(v)); }
  /// Inserts `v` ahead of `pos`, an iterator of this queue.
  void insert(iterator pos, T&& v) { items_.insert(pos, std::move(v)); }
  /// Inserts [first, last) ahead of `pos`, an iterator of this queue.
  template <typename It>
  void insert(iterator pos, It first, It last) {
    items_.insert(pos, first, last);
  }
  void pop_front() {
    items_[head_] = T();  // Frees what the element held now.
    if (++head_ == items_.size()) {
      clear();
    } else if (head_ >= kCompactAt && 2 * head_ >= items_.size()) {
      items_.erase(items_.begin(),
                   items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }
  /// Empties the queue, keeping its storage.
  void clear() {
    items_.clear();
    head_ = 0;
  }

 private:
  static constexpr size_t kCompactAt = 64;

  std::vector<T> items_;
  size_t head_ = 0;  ///< The front's index; below it, popped slots.
};

}  // namespace tcq

#endif  // TCQ_COMMON_FIFO_H_
