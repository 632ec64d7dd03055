#pragma once
// Stackful user-space fibers for cooperative simulation processes.
//
// A Process needs exactly three transfers of control: host -> process
// (switchIn), process -> host (yieldToHost), and the initial entry into the
// process body (start + first switchIn). ExecutionContext implements them
// as a fiber on an owned, configurable-size stack: a switch is a
// register-file swap in user space, with no kernel wake-up and no OS thread
// per process. That is what makes 1024-node (2048-rank) and larger cluster
// runs feasible.
//
// Contract: exactly one party (host or process) runs at any moment,
// transfers are synchronous, and the entry function runs to completion
// before the context is destroyed (Process guarantees this by unwinding via
// ProcessKilled on teardown). Sanitizer builds switch through annotated
// swapcontext, so AddressSanitizer and ThreadSanitizer both follow the
// fibers (see execution_context.cpp).

#include <cstddef>
#include <functional>

#if !__has_include(<ucontext.h>)
#error "tibsim needs <ucontext.h> (POSIX getcontext/makecontext/swapcontext) to build its fibers"
#endif
#include <setjmp.h>
#include <ucontext.h>

// Sanitizer builds switch stacks through swapcontext and announce every
// switch: AddressSanitizer intercepts longjmp and rejects a jump onto a
// different stack, and ThreadSanitizer keeps per-fiber shadow state that
// must be told which fiber the thread runs next.
#if defined(__SANITIZE_THREAD__)
#define TIBSIM_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define TIBSIM_TSAN 1
#endif
#endif
#ifndef TIBSIM_TSAN
#define TIBSIM_TSAN 0
#endif

#if defined(__SANITIZE_ADDRESS__)
#define TIBSIM_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define TIBSIM_ASAN 1
#endif
#endif
#ifndef TIBSIM_ASAN
#define TIBSIM_ASAN 0
#endif

namespace tibsim::sim {

/// Smallest usable fiber stack. Low enough that stack-sizing experiments
/// guided by the high-water telemetry can go well below the 256 KiB engine
/// default; high enough that the entry thunk itself always fits.
inline constexpr std::size_t kMinFiberStackBytes = 16 * 1024;

/// The host's VM page size (sysconf(_SC_PAGESIZE); 4096 when unavailable).
/// Fiber stacks and their guard pages are page-granular.
std::size_t pageBytes();

/// Worlds with at least this many ranks lease fiber stacks from the shared
/// slab arena (2 kernel VMAs per multi-megabyte slab, pattern sentinel page
/// under each stack, stacks recycled across worlds) instead of mmap'ing a
/// private guarded stack per fiber (2 VMAs each). A 65,536-rank world needs
/// ~131k private mappings — past the kernel's default vm.max_map_count of
/// 65530, so the per-fiber guard mprotect would fail mid-spawn.
inline constexpr int kPooledStacksMinRanks = 16384;

/// Stack size to use for a sweep whose probe run measured
/// `highWaterBytes` of peak stack use: 2x headroom, rounded up to a whole
/// page, floored at kMinFiberStackBytes. Returns 0 when highWaterBytes is 0
/// (no telemetry), meaning "keep the default".
std::size_t recommendedStackBytes(std::size_t highWaterBytes);

/// One cooperative fiber (the "how" of a Process). Not thread-safe: one
/// host thread at a time drives start/switchIn, though successive
/// switchIn calls may come from different threads (a shard's worker gang).
class ExecutionContext {
 public:
  using Entry = std::function<void()>;

  /// stackBytes == 0 means defaultStackBytes(); sizes below
  /// kMinFiberStackBytes are raised to it, and all are rounded up to whole
  /// pages. By default the stack is a private mapping with a PROT_NONE
  /// guard page below it, so an overflow faults at once. When pooledStack
  /// is true the stack is leased from the process-wide slab arena (see
  /// kPooledStacksMinRanks) instead; overflow detection then moves from an
  /// immediate guard-page fault to a sentinel-page check when the stack is
  /// released.
  explicit ExecutionContext(std::size_t stackBytes = 0,
                            bool pooledStack = false);
  ~ExecutionContext();
  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  /// Arm the context with its entry function. The entry does not run until
  /// the first switchIn(). Must be called exactly once, before switchIn().
  void start(Entry entry);

  /// Host -> context. Runs the context until it yields or its entry
  /// returns; blocks the host for the duration.
  void switchIn();

  /// Context -> host. Callable only from inside the running entry.
  void yieldToHost();

  /// Size of the owned stack (page-rounded, guard page excluded).
  std::size_t stackBytes() const { return stackBytes_; }

  /// Deepest observed use of the owned stack, measured by scanning for the
  /// first overwritten fill byte (obs::scanStackHighWater). A value equal
  /// to stackBytes() means the whole stack was scribbled — treat the stack
  /// as undersized.
  std::size_t stackHighWaterBytes() const;

  /// Fiber stack size: TIBSIM_FIBER_STACK_KB (KiB) when set, else 256 KiB.
  static std::size_t defaultStackBytes();

 private:
  static void run(unsigned selfHi, unsigned selfLo);

  Entry entry_;
  char* stack_ = nullptr;       ///< lowest usable address (stacks grow down)
  std::size_t stackBytes_ = 0;  ///< usable bytes (excludes guard/sentinel)
  bool pooled_ = false;         ///< stack leased from the slab arena
  bool armed_ = false;
  bool done_ = false;
#if TIBSIM_ASAN || TIBSIM_TSAN
  // Every switch is a swapcontext between these two, announced with the
  // sanitizer's fiber hooks: where the host stack lives (ASan) and the
  // fiber handles of this context and of the thread that resumed it
  // (TSan).
  ucontext_t fiberCtx_{};
  ucontext_t hostCtx_{};
  const void* hostStackBottom_ = nullptr;
  std::size_t hostStackSize_ = 0;
  void* tsanFiber_ = nullptr;
  void* tsanHost_ = nullptr;
#else
  // Register-file switches; the first entry's ucontext pair lives on the
  // host stack for that one switch (see execution_context.cpp).
  jmp_buf hostJmp_{};
  jmp_buf fiberJmp_{};
  bool entered_ = false;
#endif
};

}  // namespace tibsim::sim
