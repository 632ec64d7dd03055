#pragma once
// Message payload memory for the simMPI hot path.
//
// Every send used to construct a fresh std::vector<std::byte> for its
// payload and every receive freed it — one allocator round-trip per message,
// millions of times per big-cluster sweep. Two layers remove that:
//
//  * MessagePayload stores payloads of up to kInlineCapacity (64) bytes
//    inline in the Message itself — covering the control traffic (doubles,
//    counters, CTS-sized frames) that dominates message counts — and backs
//    larger payloads with a buffer from the sending shard's PayloadPool.
//  * PayloadPool parks returned buffers in power-of-two *size classes*
//    (128 B, 256 B, ... — anything smaller rides inline). An acquire is
//    served from the request's own class when possible, then from the
//    smallest larger class (no copy-growth), and only as a last resort from
//    a smaller class (which reallocates). Apps cycling through many
//    distinct large payload sizes therefore keep their warm buffers, one
//    free list per size class. Buffer capacities are rounded up to the
//    class size so parked buffers stay interchangeable within a class.
//
// Accounting: the pool counts only what it does. The counters split in
// two by what they depend on:
//
//  * traffic counters (inline/pooled message counts, returns, per-class
//    acquires) are sums over the messages sent and received. They do not
//    depend on event order or on which pool served a message, so summing
//    them over a sharded world's per-shard pools gives the same value for
//    every shard count. These are the only pool counters serialised into
//    campaign artefacts;
//  * pool-behaviour counters (reuses, allocations, trimmed buffers, live
//    high-water, per-class reuses/allocations/parked) depend on which
//    buffers were parked where and when. They stay in memory: host-side
//    figures for the run summary and the benchmark probes, never written
//    to an artefact.
//
// Single-threaded by design: a pool is touched only by the thread that
// runs its shard. A sharded world gives each shard its own pool; a pooled
// buffer is acquired from the sender's pool and parked in the receiver's,
// so one pool's outstanding count may go negative while the world's sum
// over its pools stays the number of buffers in flight.

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

namespace tibsim::mpi {

/// Size-classed free lists of payload buffers.
class PayloadPool {
 public:
  /// Pool totals. Traffic fields (serialised): inlineMessages,
  /// pooledMessages, returns. Pool-behaviour fields (in memory only): the
  /// rest.
  struct Stats {
    std::uint64_t inlineMessages = 0;  ///< payloads stored in the Message
    std::uint64_t pooledMessages = 0;  ///< payloads backed by a pool buffer
    std::uint64_t returns = 0;         ///< buffers parked back in this pool
    std::uint64_t reuses = 0;        ///< acquires served without allocating
    std::uint64_t allocations = 0;   ///< acquires that hit the allocator
    std::uint64_t trimmedBuffers = 0;  ///< parked buffers freed by trims
    std::uint64_t liveHighWater = 0;   ///< max buffers checked out at once
  };

  /// Per power-of-two class. `acquires` is a traffic counter (serialised
  /// in the campaign __worlds.csv class table); the others describe pool
  /// behaviour and stay in memory.
  struct ClassStats {
    std::size_t classBytes = 0;      ///< buffer capacity of this class
    std::uint64_t acquires = 0;      ///< requests that mapped to this class
    std::uint64_t reuses = 0;        ///< served by a parked buffer (any class)
    std::uint64_t allocations = 0;   ///< paid an allocation or copy-growth
    std::uint64_t parked = 0;        ///< buffers returned into this class
  };

  /// Smallest pooled class: one step above the inline capacity.
  static constexpr std::size_t kMinClassIndex = 7;  // 128 bytes

  /// Power-of-two class for a payload of `bytes` (>= 65).
  static std::size_t classIndex(std::size_t bytes);
  static std::size_t classBytes(std::size_t index) {
    return std::size_t{1} << index;
  }

  /// A buffer holding a copy of `data`, with capacity rounded up to the
  /// class size.
  std::vector<std::byte> acquire(std::span<const std::byte> data);

  /// Park a buffer for reuse. Contents are discarded, capacity is kept.
  void release(std::vector<std::byte>&& buffer);

  /// Free parked buffers beyond what the observed peak demand can use:
  /// keeps at most (liveHighWater - currently outstanding) buffers parked,
  /// dropping the smallest classes' coldest buffers first. Returns the
  /// number of buffers actually freed from the class lists.
  std::size_t trimToHighWater();

  const Stats& stats() const { return stats_; }
  /// Per-class counters, indexed by classIndex (entries below
  /// kMinClassIndex stay zero).
  const std::vector<ClassStats>& classStats() const { return classStats_; }

  /// Resets counters for the next accounting window. The live high-water
  /// restarts from the buffers still outstanding now, not from zero.
  void resetStats();

  std::size_t freeBuffers() const { return freeTotal_; }
  /// Buffers acquired from this pool minus buffers released into it.
  /// Negative for a pool that receives more pooled messages than it sends.
  std::int64_t outstandingBuffers() const { return outstanding_; }

 private:
  friend class MessagePayload;

  void ensureClass(std::size_t index);
  void noteInlineMessage() { ++stats_.inlineMessages; }
  void notePooledMessage() { ++stats_.pooledMessages; }

  std::vector<std::vector<std::vector<std::byte>>> free_;  ///< by class
  std::vector<ClassStats> classStats_;
  Stats stats_;
  std::size_t freeTotal_ = 0;
  std::int64_t outstanding_ = 0;
};

/// Payload storage for one in-flight message: empty, inline (<= 64 bytes,
/// no separate storage), or pooled (buffer borrowed from a PayloadPool).
/// Move-only so a pooled buffer has exactly one owner; the receive path
/// must call intoVector() to hand the bytes to the application and give the
/// buffer back to a pool (in a sharded world: the *consuming* shard's pool,
/// which is how warm buffers migrate toward the ranks that use them).
class MessagePayload {
 public:
  static constexpr std::size_t kInlineCapacity = 64;

  MessagePayload() = default;

  /// Copy `data` into inline storage or a pool buffer (counted in Stats).
  MessagePayload(std::span<const std::byte> data, PayloadPool& pool);

  // Moves reset the source to the empty state (a defaulted move would leave
  // its size_/pooled_ behind, making the moved-from payload look live).
  // Only the live prefix of the inline array is copied: a Message is moved
  // several times between send and receive (in-flight slab, mailbox), and
  // size-only traffic would otherwise pay for 64 bytes it never wrote.
  MessagePayload(MessagePayload&& other) noexcept
      : size_(std::exchange(other.size_, 0)),
        pooled_(std::exchange(other.pooled_, false)),
        buffer_(std::move(other.buffer_)) {
    if (!pooled_ && size_ > 0)
      std::memcpy(inline_.data(), other.inline_.data(), size_);
  }
  MessagePayload& operator=(MessagePayload&& other) noexcept {
    size_ = std::exchange(other.size_, 0);
    pooled_ = std::exchange(other.pooled_, false);
    buffer_ = std::move(other.buffer_);
    if (!pooled_ && size_ > 0)
      std::memcpy(inline_.data(), other.inline_.data(), size_);
    return *this;
  }
  MessagePayload(const MessagePayload&) = delete;
  MessagePayload& operator=(const MessagePayload&) = delete;

  std::size_t size() const { return size_; }
  bool pooled() const { return pooled_; }

  std::span<const std::byte> view() const {
    return pooled_ ? std::span<const std::byte>(buffer_.data(), size_)
                   : std::span<const std::byte>(inline_.data(), size_);
  }

  /// The application-facing copy: a fresh vector with the bytes, with any
  /// pooled buffer returned to `pool` for the next send to reuse.
  std::vector<std::byte> intoVector(PayloadPool& pool);

 private:
  std::size_t size_ = 0;
  bool pooled_ = false;
  // Deliberately not zero-initialised: only the first size_ bytes are ever
  // written (ctor) and read (view/moves), and zeroing 64 bytes per Message
  // construction is measurable on the ping-pong hot path.
  std::array<std::byte, kInlineCapacity> inline_;
  std::vector<std::byte> buffer_;
};

}  // namespace tibsim::mpi
