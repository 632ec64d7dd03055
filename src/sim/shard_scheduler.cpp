#include "tibsim/sim/shard_scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <string>

#include "tibsim/common/assert.hpp"

namespace tibsim::sim {

namespace {

constexpr std::size_t kMaxShards = 1024;

int clampShards(int shards) {
  return std::clamp(shards, 1, static_cast<int>(kMaxShards));
}

int readDefaultSimShards() {
  // Same pattern as TIBSIM_TRACE_MODE: the environment seeds the
  // process-wide default once; --sim-shards and ScopedSimShards override it
  // explicitly afterwards.
  const char* env = std::getenv("TIBSIM_SIM_SHARDS");
  if (env == nullptr || *env == '\0') return 1;
  char* end = nullptr;
  const long value = std::strtol(env, &end, 10);
  if (end == env || *end != '\0') return 1;
  return clampShards(static_cast<int>(value));
}

int& defaultSimShardsSlot() {
  // tibsim-lint: allow(shard-shared) — host-side config slot, set before runs
  static int shards = readDefaultSimShards();
  return shards;
}

// One busy-wait step. Windows are so short that parked workers would pay a
// futex wake per window; spinning across the serial barrier keeps the gang
// hot through communication bursts.
inline void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield");
#else
  // tibsim-lint: allow(fiber-block) — gang-worker spin hint, not fiber code
  std::this_thread::yield();
#endif
}

// Spin budget before a worker parks on the condition variable: long enough
// to cover a typical barrier (~tens of µs), short enough not to burn a core
// through a compute phase or a run of narrow windows (both run inline, so
// the gang sees no epochs for milliseconds at a time there).
constexpr std::uint32_t kGangSpinLimit = 20000;

// How long a parked worker sleeps before it looks for a fanned window
// again. Nobody wakes it earlier but stopGang: on a virtualised host a
// futex wake of an idle core measured ~0.3 ms on the waker's side, longer
// than most windows, so the caller never pays one. A wide phase after a
// quiet one finds its workers within this period instead.
constexpr std::chrono::microseconds kGangPollPeriod{500};

// The gang's claim word: the fanned window's epoch in the high 40 bits, its
// active shard count and next unclaimed index in 12 bits each. One word, so
// a claim can never land in a later window.
constexpr unsigned kClaimFieldBits = 12;
constexpr std::uint64_t kClaimFieldMask = (1u << kClaimFieldBits) - 1;
static_assert(kMaxShards <= kClaimFieldMask);
std::uint64_t claimWord(std::uint64_t epoch, std::size_t count) {
  return (epoch << (2 * kClaimFieldBits)) | (count << kClaimFieldBits);
}
std::uint64_t epochOf(std::uint64_t word) {
  return word >> (2 * kClaimFieldBits);
}
std::size_t countOf(std::uint64_t word) {
  return (word >> kClaimFieldBits) & kClaimFieldMask;
}
std::size_t nextOf(std::uint64_t word) { return word & kClaimFieldMask; }

// TIBSIM_SHARD_THREADS as a positive count, or 0 when unset or unparsable.
std::size_t shardThreadsOverride() {
  const char* env = std::getenv("TIBSIM_SHARD_THREADS");
  if (env == nullptr || *env == '\0') return 0;
  char* end = nullptr;
  const long value = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || value < 1) return 0;
  return static_cast<std::size_t>(value);
}

}  // namespace

bool fanOutWindow(std::span<const std::size_t> queued) {
  std::size_t ready = 0;
  for (const std::size_t n : queued) {
    if (n >= kFanoutMinEvents && ++ready == 2) return true;
  }
  return false;
}

int defaultSimShards() { return defaultSimShardsSlot(); }

void setDefaultSimShards(int shards) {
  defaultSimShardsSlot() = clampShards(shards);
}

ShardScheduler::ShardScheduler(double lookaheadSeconds)
    : lookahead_(lookaheadSeconds) {
  TIB_REQUIRE_MSG(lookahead_ > 0.0,
                  "shard scheduler needs a positive lookahead; a zero-latency"
                  " fabric must run single-shard");
}

ShardScheduler::~ShardScheduler() { stopGang(); }

std::size_t ShardScheduler::addShard(Simulation* shard) {
  TIB_REQUIRE(shard != nullptr);
  TIB_REQUIRE_MSG(gang_.empty(), "cannot add shards while the gang runs");
  TIB_REQUIRE_MSG(shards_.size() < kMaxShards, "at most 1024 shards");
  shards_.push_back(shard);
  return shards_.size() - 1;
}

void ShardScheduler::teardownShard(std::size_t shard) {
  TIB_REQUIRE(shard < shards_.size());
  shards_[shard] = nullptr;
}

Simulation& ShardScheduler::shard(std::size_t index) {
  TIB_REQUIRE(index < shards_.size() && shards_[index] != nullptr);
  return *shards_[index];
}

void ShardScheduler::channelPush(std::size_t dstShard, double t,
                                 std::uint64_t g, std::uint64_t pushIdx,
                                 UniqueFunction fn) {
  TIB_REQUIRE_MSG(dstShard < shards_.size() && shards_[dstShard] != nullptr,
                  "cross-shard event routed to a torn-down shard");
  shards_[dstShard]->scheduleChannel(t, g, pushIdx, std::move(fn));
}

std::size_t ShardScheduler::gangParticipants() const {
  if (const std::size_t forced = shardThreadsOverride(); forced > 0)
    return std::min(forced, shards_.size());
  const std::size_t cores =
      std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
  return std::min(shards_.size(), cores);
}

void ShardScheduler::startGang() {
  fanOutEveryWindow_ = shardThreadsOverride() > 0;
  const std::size_t participants = gangParticipants();
  if (participants < 2) return;  // caller-only: every window runs inline
  gang_.reserve(participants - 1);
  for (std::size_t i = 0; i + 1 < participants; ++i)
    gang_.emplace_back([this] { gangLoop(); });
}

void ShardScheduler::stopGang() {
  if (gang_.empty()) return;
  {
    std::lock_guard<std::mutex> lock(gangMutex_);
    gangStop_.store(true, std::memory_order_release);
  }
  gangWake_.notify_all();
  for (std::thread& t : gang_) t.join();
  gang_.clear();
  gangStop_.store(false, std::memory_order_relaxed);
}

void ShardScheduler::runShard(std::size_t shard) {
  try {
    shards_[shard]->runWindow(windowEnd_);
  } catch (...) {
    std::lock_guard<std::mutex> lock(gangMutex_);
    if (gangError_ == nullptr) gangError_ = std::current_exception();
  }
}

void ShardScheduler::runClaimedShards(std::uint64_t epoch) {
  std::uint64_t word = claim_.load(std::memory_order_acquire);
  while (epochOf(word) == epoch && nextOf(word) < countOf(word)) {
    if (!claim_.compare_exchange_weak(word, word + 1,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire))
      continue;
    // The claim pins the window: the caller touches active_ and windowEnd_
    // again only once every claimed shard has reported done.
    runShard(active_[nextOf(word)]);
    doneShards_.fetch_add(1, std::memory_order_release);
    word = claim_.load(std::memory_order_acquire);
  }
}

void ShardScheduler::gangLoop() {
  std::uint64_t seen = 0;
  for (;;) {
    std::uint32_t spins = 0;
    std::uint64_t epoch = 0;
    while ((epoch = epochOf(claim_.load(std::memory_order_acquire))) ==
           seen) {
      if (gangStop_.load(std::memory_order_acquire)) return;
      if (spins < kGangSpinLimit) {
        ++spins;
        cpuRelax();
        continue;
      }
      // Parked: poll, with no handshake to lose. The caller never waits
      // for a worker, so one that oversleeps a window costs only its help.
      std::unique_lock<std::mutex> lock(gangMutex_);
      gangWake_.wait_for(lock, kGangPollPeriod, [this] {
        return gangStop_.load(std::memory_order_acquire);
      });
    }
    seen = epoch;
    runClaimedShards(seen);
  }
}

bool ShardScheduler::worthFanningOut() {
  queued_.clear();
  for (const std::size_t i : active_)
    queued_.push_back(shards_[i]->queuedBefore(windowEnd_, kFanoutMinEvents));
  return fanOutWindow(queued_);
}

double ShardScheduler::run(const std::function<void()>& barrier) {
  startGang();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (;;) {
    double minNext = kInf;
    for (Simulation* shard : shards_) {
      if (shard != nullptr && shard->hasEvents())
        minNext = std::min(minNext, shard->nextEventTime());
    }
    if (minNext == kInf) {
      // Queues drained — but the barrier may still hold deferred ops whose
      // replay pushes fresh events (a window that ended exactly on a batch
      // of cross-shard sends). One flush decides: still empty means done.
      barrier();
      bool any = false;
      for (Simulation* shard : shards_) {
        if (shard != nullptr && shard->hasEvents()) any = true;
      }
      if (!any) break;
      continue;
    }

    const double windowEnd = minNext + lookahead_;
    active_.clear();
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      Simulation* shard = shards_[i];
      if (shard != nullptr && shard->hasEvents() &&
          shard->nextEventTime() < windowEnd)
        active_.push_back(i);
    }
    TIB_ASSERT(!active_.empty());
    windowEnd_ = windowEnd;
    if (active_.size() > 1) ++parallelWindowsRun_;
    if (active_.size() == 1 || gang_.empty() ||
        !(fanOutEveryWindow_ || worthFanningOut())) {
      // Inline path: serial and pipelined phases put all the work in one
      // shard per window, and most multi-shard windows hold only a few
      // events per shard — either way a hand-off to the gang would cost
      // more than the work it splits. A single-core host (empty gang) runs
      // everything here.
      for (const std::size_t shard : active_) runShard(shard);
    } else {
      // Every fanned window is a new epoch.
      const std::uint64_t word =
          claimWord(++fanoutWindowsRun_, active_.size());
      doneShards_.store(0, std::memory_order_relaxed);
      claim_.store(word, std::memory_order_release);
      runClaimedShards(epochOf(word));
      // Wait for the shards, not for the workers: a worker still parked or
      // waking up has claimed nothing, and the caller ran its share.
      while (doneShards_.load(std::memory_order_acquire) < active_.size()) {
        cpuRelax();
      }
    }
    if (gangError_ != nullptr) {
      std::exception_ptr error;
      {
        std::lock_guard<std::mutex> lock(gangMutex_);
        error = gangError_;
        gangError_ = nullptr;
      }
      stopGang();
      std::rethrow_exception(error);
    }
    ++windowsRun_;
    barrier();
  }
  stopGang();

  double finalTime = 0.0;
  for (Simulation* shard : shards_) {
    if (shard != nullptr) finalTime = std::max(finalTime, shard->now());
  }
  return finalTime;
}

}  // namespace tibsim::sim
