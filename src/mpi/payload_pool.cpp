#include "tibsim/mpi/payload_pool.hpp"

#include <algorithm>
#include <bit>

#include "tibsim/common/assert.hpp"

namespace tibsim::mpi {

// ---------------------------------------------------------------------------
// PayloadPool
// ---------------------------------------------------------------------------

std::size_t PayloadPool::classIndex(std::size_t bytes) {
  const std::size_t width = static_cast<std::size_t>(
      std::bit_width(std::max<std::size_t>(bytes, 2) - 1));
  return std::max(width, kMinClassIndex);
}

void PayloadPool::ensureClass(std::size_t index) {
  if (index < free_.size()) return;
  free_.resize(index + 1);
  classStats_.resize(index + 1);
  for (std::size_t c = kMinClassIndex; c < classStats_.size(); ++c)
    classStats_[c].classBytes = classBytes(c);
}

std::vector<std::byte> PayloadPool::acquire(std::span<const std::byte> data) {
  const std::size_t bytes = data.size();
  const std::size_t cls = classIndex(bytes);
  ensureClass(cls);
  ++classStats_[cls].acquires;

  std::vector<std::byte> buffer;
  if (freeTotal_ > 0) {
    // Best fit: own class, else the smallest larger class (its buffer
    // already fits), else the largest smaller class (the reserve below
    // grows it — still cheaper than leaving warm memory parked while the
    // allocator is hit for a brand-new buffer).
    std::size_t donor = cls;
    if (free_[donor].empty()) {
      donor = free_.size();
      for (std::size_t c = cls + 1; c < free_.size(); ++c) {
        if (!free_[c].empty()) {
          donor = c;
          break;
        }
      }
      if (donor == free_.size()) {
        for (std::size_t c = cls; c-- > 0;) {
          if (!free_[c].empty()) {
            donor = c;
            break;
          }
        }
      }
    }
    TIB_ASSERT(donor < free_.size() && !free_[donor].empty());
    buffer = std::move(free_[donor].back());
    free_[donor].pop_back();
    --freeTotal_;
    if (buffer.capacity() >= bytes) {
      ++classStats_[cls].reuses;
      ++stats_.reuses;
    } else {
      ++classStats_[cls].allocations;
      ++stats_.allocations;
    }
  } else {
    ++classStats_[cls].allocations;
    ++stats_.allocations;
  }

  if (buffer.capacity() < classBytes(cls)) buffer.reserve(classBytes(cls));
  buffer.clear();
  buffer.insert(buffer.end(), data.begin(), data.end());

  ++outstanding_;
  if (outstanding_ > 0)
    stats_.liveHighWater = std::max(stats_.liveHighWater,
                                    static_cast<std::uint64_t>(outstanding_));
  return buffer;
}

void PayloadPool::release(std::vector<std::byte>&& buffer) {
  --outstanding_;
  if (buffer.capacity() == 0) return;
  // Capacities are rounded up to a class size on acquire, so this maps the
  // buffer straight back to the class it was reserved for (or the larger
  // donor class whose capacity it kept).
  const std::size_t cls = classIndex(buffer.capacity());
  ensureClass(cls);
  buffer.clear();
  free_[cls].push_back(std::move(buffer));
  ++freeTotal_;
  ++classStats_[cls].parked;
  ++stats_.returns;
}

std::size_t PayloadPool::trimToHighWater() {
  // Peak demand was liveHighWater simultaneous buffers; the ones checked
  // out right now need no parked buffer. A negative count (a pool that
  // received more than it sent) has nothing checked out.
  const auto out = static_cast<std::uint64_t>(std::max<std::int64_t>(
      outstanding_, 0));
  const std::size_t keep = static_cast<std::size_t>(
      stats_.liveHighWater > out ? stats_.liveHighWater - out : 0);
  std::size_t dropped = 0;
  // Drop the smallest classes' coldest (oldest, front-of-list) buffers
  // first: the large classes hold the buffers that are expensive to
  // re-create, so they are the last to go.
  for (std::size_t c = kMinClassIndex; c < free_.size() && freeTotal_ > keep;
       ++c) {
    auto& list = free_[c];
    while (!list.empty() && freeTotal_ > keep) {
      list.erase(list.begin());
      --freeTotal_;
      ++dropped;
    }
  }
  stats_.trimmedBuffers += dropped;
  return dropped;
}

void PayloadPool::resetStats() {
  stats_ = Stats{};
  stats_.liveHighWater =
      static_cast<std::uint64_t>(std::max<std::int64_t>(outstanding_, 0));
  for (auto& cs : classStats_) {
    const std::size_t bytes = cs.classBytes;
    cs = ClassStats{};
    cs.classBytes = bytes;
  }
}

// ---------------------------------------------------------------------------
// MessagePayload
// ---------------------------------------------------------------------------

MessagePayload::MessagePayload(std::span<const std::byte> data,
                               PayloadPool& pool)
    : size_(data.size()) {
  if (data.empty()) return;  // empty payloads count as neither kind
  if (size_ <= kInlineCapacity) {
    std::memcpy(inline_.data(), data.data(), size_);
    pool.noteInlineMessage();
    return;
  }
  buffer_ = pool.acquire(data);
  pooled_ = true;
  pool.notePooledMessage();
}

std::vector<std::byte> MessagePayload::intoVector(PayloadPool& pool) {
  std::vector<std::byte> out(view().begin(), view().end());
  if (pooled_) {
    pool.release(std::move(buffer_));
    pooled_ = false;
  }
  size_ = 0;
  return out;
}

}  // namespace tibsim::mpi
