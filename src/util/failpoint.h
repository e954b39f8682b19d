// Deterministic fault injection (failpoints) for the serving stack.
//
// Every syscall wrapper and fallible hot-path branch in src/net/,
// src/persist/, and src/service/ consults a *named* failpoint before doing
// the real work. Disarmed — the only state production traffic ever sees —
// a failpoint costs one relaxed atomic load of a pointer that is null, and
// the injected-failure branch is never taken; there is no lock, no RNG, no
// clock read on that path. Armed, the failpoint evaluates a small action
// program against a seeded deterministic RNG, so a chaos run is exactly
// reproducible from its schedule string.
//
// Schedule grammar (the FTBFS_FAILPOINTS environment variable and the
// `ftbfs serve --failpoints` flag both speak it):
//
//   schedule  := entry (';' entry)*
//   entry     := name '=' action
//   action    := 'err(' ERRNO [',' param]* ')'     inject errno, syscall fails
//              | 'shortwrite(' [param]* ')'        truncate a write to half
//              | 'sleep(' 'ms=' N [',' param]* ')' delay, then proceed
//   param     := 'p=' FLOAT                        firing probability (def. 1)
//              | 'seed=' N                         RNG seed (default 1)
//              | 'count=' N                        fire at most N times (0 = no
//                                                  limit)
//   ERRNO     := EAGAIN | EINTR | ENOSPC | EMFILE | ENFILE | ECONNRESET |
//                EPIPE | EIO | ENOMEM | a plain integer
//
// Example: FTBFS_FAILPOINTS="net.write=err(EAGAIN,p=0.01,seed=42);
//          persist.write=shortwrite(p=0.5,seed=7)"
//
// Registered point names (grep for fp::site to enumerate):
//   net.accept    accept4() in the epoll loop
//   net.read      read() from a connection
//   net.write     send() to a connection
//   persist.write write() of the snapshot temp file
//   persist.fsync fsync() of the snapshot temp file / parent directory
//   persist.mmap  mmap() of a snapshot being loaded (falls back to read())
//   service.build_alloc   allocation inside a lazy structure build (sleep =
//                         a slow build)
//   service.execute       request execution (sleep = a slow backend)
//
// Thread-safety: site() interns under a mutex (call-sites cache the
// reference in a function-local static); eval() on an armed point locks that
// point's mutex — armed points are a test-only regime where determinism
// beats scalability. arm()/disarm_all() may race with eval() safely, but the
// action a concurrent eval sees is unspecified mid-arm; tests arm before
// opening traffic.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

namespace ftbfs::fp {

// What one evaluation of an armed failpoint decided. kNone = proceed.
struct Outcome {
  enum class Kind { kNone, kErr, kShortWrite, kSleep };
  Kind kind = Kind::kNone;
  int err = 0;           // kErr: errno the wrapped syscall should fail with
  std::uint32_t ms = 0;  // kSleep: delay before proceeding
};

class Failpoint {
 public:
  explicit Failpoint(std::string name) : name_(std::move(name)) {}
  Failpoint(const Failpoint&) = delete;
  Failpoint& operator=(const Failpoint&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }

  // The disarmed fast path: one relaxed load, branch predicted not-taken.
  [[nodiscard]] bool armed() const {
    return armed_.load(std::memory_order_relaxed);
  }

  // Parsed form of one schedule entry. Public only so the parser helpers in
  // failpoint.cpp can build one; callers never touch it.
  struct Action {
    Outcome::Kind kind = Outcome::Kind::kNone;
    int err = 0;
    std::uint32_t sleep_ms = 0;
    double p = 1.0;              // firing probability per evaluation
    std::uint64_t seed = 1;      // RNG seed (state below starts from it)
    std::uint64_t count = 0;     // max firings; 0 = unlimited
    // Mutable evaluation state (under mutex_).
    std::uint64_t rng = 1;
    std::uint64_t fired = 0;
    std::string spec;            // entry as parsed, for active_schedule()
  };

 private:
  friend Failpoint& site(const std::string& name);
  friend Outcome eval_armed(Failpoint& f);
  friend bool arm(const std::string& schedule, std::string* error);
  friend void disarm_all();
  friend std::string active_schedule();

  std::string name_;
  std::atomic<bool> armed_{false};
  std::mutex mutex_;  // guards action_ contents while armed
  Action action_;
};

// Interns `name` (stable address for the process's life). Call-sites cache:
//   static Failpoint& s = fp::site("net.read");
[[nodiscard]] Failpoint& site(const std::string& name);

// Slow path of eval(); call only when f.armed().
[[nodiscard]] Outcome eval_armed(Failpoint& f);

// Evaluates a failpoint. Disarmed: one relaxed load, returns kNone.
[[nodiscard]] inline Outcome eval(Failpoint& f) {
  if (__builtin_expect(f.armed(), 0)) return eval_armed(f);
  return Outcome{};
}

// Convenience for syscall wrappers that only inject errnos: 0 = proceed,
// otherwise the errno to fail with. kSleep outcomes sleep here; kShortWrite
// outcomes are meaningless for non-write syscalls and proceed.
[[nodiscard]] int fail_errno(Failpoint& f);

// Parses and arms a schedule. Returns false (and sets *error) on a malformed
// schedule, leaving previously armed points untouched. Arming a point twice
// replaces its action. An empty schedule is valid and arms nothing.
bool arm(const std::string& schedule, std::string* error = nullptr);

// Arms from the FTBFS_FAILPOINTS environment variable if set; a malformed
// value is a startup error worth dying for in a chaos harness, so this
// throws std::runtime_error instead of half-arming. Returns the schedule
// armed ("" when the variable is unset).
std::string arm_from_env();

// Disarms every point (the registry itself persists; sites stay interned).
void disarm_all();

// The currently armed schedule, normalized to grammar form — what a chaos CI
// job uploads as its reproduction artifact. "" when nothing is armed.
[[nodiscard]] std::string active_schedule();

}  // namespace ftbfs::fp
