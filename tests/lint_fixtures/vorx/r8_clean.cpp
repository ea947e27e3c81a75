// Clean twin of r8_lifetime.cpp: value captures, and handle storage that
// lives inside awaiter machinery (exempt — parking handles is the coroutine
// protocol itself).  Must produce zero diagnostics.
#include <coroutine>
#include <vector>

namespace hpcvorx::vorx {

struct Scheduler {
  template <typename F>
  void schedule_after(long delay, F f);
};

// An awaiter may park handles: resumed exactly once by its event source.
struct Gate {
  bool await_ready() const noexcept { return open; }
  void await_suspend(std::coroutine_handle<> h) { waiters.push_back(h); }
  void await_resume() const noexcept {}
  bool open = false;
  std::vector<std::coroutine_handle<>> waiters;
};

// A task wrapper holds its own frame's handle: declaring its promise type
// as a member is what marks it as machinery.
class Job {
 public:
  struct promise_type {
    Job get_return_object();
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() {}
  };

 private:
  std::coroutine_handle<promise_type> frame_;
};

void arm_counter(Scheduler& s, int start) {
  s.schedule_after(10, [start] { (void)(start + 1); });
}

}  // namespace hpcvorx::vorx
