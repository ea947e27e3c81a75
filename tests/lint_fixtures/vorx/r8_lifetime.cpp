// Seeded R8 violations: coroutine handles and frames kept alive past their
// owner's scope, and a by-reference lambda escaping into a scheduler sink.
// The clean twin is r8_clean.cpp.
#include <coroutine>
#include <vector>

namespace hpcvorx::vorx {

struct Scheduler {
  template <typename F>
  void schedule_after(long delay, F f);
};

class Watchdog {
 public:
  void arm(std::coroutine_handle<> h) { armed_ = h; }

 private:
  std::coroutine_handle<> armed_;  // R8 stored-handle (non-owning member)
};

class Backlog {
 private:
  std::vector<std::coroutine_handle<>> parked_;  // R8 stored-handle (container)
};

// Nesting an awaiter does not make the enclosing class one.
class Mailbox {
 public:
  struct Waiter {
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { box->parked_ = h; }
    void await_resume() const noexcept {}
    Mailbox* box;
  };

 private:
  std::coroutine_handle<> parked_;  // R8 stored-handle (awaiter only nested)
};

void leak_local(Scheduler& s) {
  int hits = 0;
  s.schedule_after(10, [&hits] { ++hits; });  // R8 ref-capture-escape
}

}  // namespace hpcvorx::vorx
