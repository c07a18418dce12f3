// EventLoop unit tests: fd readiness dispatch, timers (ordering and
// cancellation), cross-thread post/stop, and reentrant removal of fds from
// inside their own callbacks (the teardown-during-dispatch case the bus
// relies on).
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "net/event_loop.hpp"
#include "net/socket.hpp"

namespace raptee::net {
namespace {

/// A connected socket pair used one way, like a pipe: write_some is the
/// socket send wrapper.
struct Pipe {
  Fd read_end;
  Fd write_end;
  Pipe() {
    int ends[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, ends), 0);
    set_nonblocking(ends[0]);
    set_nonblocking(ends[1]);
    read_end = Fd(ends[0]);
    write_end = Fd(ends[1]);
  }
};

TEST(EventLoop, PostRunsOnLoopThreadAndStopReturns) {
  EventLoop loop;
  std::atomic<int> ran{0};
  std::thread::id loop_tid;
  loop.post([&] {
    loop_tid = std::this_thread::get_id();
    ran.fetch_add(1);
    loop.stop();
  });
  std::thread t([&] { loop.run(); });
  const std::thread::id runner_tid = t.get_id();
  t.join();
  EXPECT_EQ(ran.load(), 1);
  EXPECT_EQ(loop_tid, runner_tid);
}

TEST(EventLoop, ReadableFdDispatches) {
  EventLoop loop;
  Pipe pipe;
  std::vector<std::uint8_t> got;
  loop.add_fd(pipe.read_end.get(), EventLoop::kReadable, [&](std::uint32_t events) {
    EXPECT_TRUE(events & EventLoop::kReadable);
    std::uint8_t buf[16];
    const long n = read_some(pipe.read_end.get(), buf, sizeof buf);
    for (long i = 0; i < n; ++i) got.push_back(buf[i]);
    if (!got.empty()) loop.stop();
  });
  const std::uint8_t byte = 42;
  ASSERT_GT(write_some(pipe.write_end.get(), &byte, 1), 0);
  loop.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], 42);
}

TEST(EventLoop, TimersFireInDeadlineOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.post([&] {
    loop.run_after(std::chrono::milliseconds(30), [&] {
      order.push_back(3);
      loop.stop();
    });
    loop.run_after(std::chrono::milliseconds(1), [&] { order.push_back(1); });
    loop.run_after(std::chrono::milliseconds(15), [&] { order.push_back(2); });
  });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventLoop, CancelledTimerNeverFires) {
  EventLoop loop;
  bool cancelled_fired = false;
  loop.post([&] {
    const EventLoop::TimerId id =
        loop.run_after(std::chrono::milliseconds(5), [&] { cancelled_fired = true; });
    loop.cancel_timer(id);
    loop.run_after(std::chrono::milliseconds(20), [&] { loop.stop(); });
  });
  loop.run();
  EXPECT_FALSE(cancelled_fired);
}

TEST(EventLoop, TimerMayCancelALaterTimerDuringDispatch) {
  // Cancel-during-dispatch: an earlier timer's callback cancels a later
  // timer that is already armed (possibly due in the same poll pass). The
  // cancelled callback must never run — the heap may not hand out a stale
  // entry it popped before the cancellation.
  EventLoop loop;
  bool victim_fired = false;
  loop.post([&] {
    EventLoop::TimerId victim = loop.run_after(std::chrono::milliseconds(2),
                                               [&] { victim_fired = true; });
    loop.run_after(std::chrono::milliseconds(1),
                   [&, victim] { loop.cancel_timer(victim); });
    loop.run_after(std::chrono::milliseconds(20), [&] { loop.stop(); });
  });
  loop.run();
  EXPECT_FALSE(victim_fired);
}

TEST(EventLoop, IdenticalDeadlinesFireInCreationOrder) {
  // Two timers armed for the same deadline must dispatch in the order they
  // were created — the (deadline, id) tie-break the evt::Scheduler mirrors
  // with its (virtual_time, seq) key.
  EventLoop loop;
  std::vector<int> order;
  loop.post([&] {
    const auto deadline = std::chrono::milliseconds(10);
    loop.run_after(deadline, [&] { order.push_back(1); });
    loop.run_after(deadline, [&] { order.push_back(2); });
    loop.run_after(deadline, [&] { order.push_back(3); });
    loop.run_after(std::chrono::milliseconds(30), [&] { loop.stop(); });
  });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventLoop, HandlerMayRemoveItsOwnFd) {
  EventLoop loop;
  Pipe pipe;
  int calls = 0;
  loop.add_fd(pipe.read_end.get(), EventLoop::kReadable, [&](std::uint32_t) {
    ++calls;
    loop.remove_fd(pipe.read_end.get());  // reentrant removal
    loop.run_after(std::chrono::milliseconds(10), [&] { loop.stop(); });
  });
  const std::uint8_t byte = 1;
  ASSERT_GT(write_some(pipe.write_end.get(), &byte, 1), 0);
  loop.run();
  EXPECT_EQ(calls, 1);  // byte left unread: without removal this would spin
}

TEST(EventLoop, HandlerMayRemoveAnotherPendingFd) {
  // Both pipes become readable in the same poll pass; whichever handler
  // runs first removes the other — the loop must not dispatch to the
  // removed entry (delivery-time lookup).
  EventLoop loop;
  Pipe a, b;
  std::atomic<int> dispatched{0};
  const auto handler = [&](int self_fd, int other_fd) {
    return [&, self_fd, other_fd](std::uint32_t) {
      dispatched.fetch_add(1);
      std::uint8_t buf[4];
      (void)read_some(self_fd, buf, sizeof buf);
      loop.remove_fd(other_fd);
      loop.run_after(std::chrono::milliseconds(5), [&] { loop.stop(); });
    };
  };
  loop.add_fd(a.read_end.get(), EventLoop::kReadable,
              handler(a.read_end.get(), b.read_end.get()));
  loop.add_fd(b.read_end.get(), EventLoop::kReadable,
              handler(b.read_end.get(), a.read_end.get()));
  const std::uint8_t byte = 1;
  ASSERT_GT(write_some(a.write_end.get(), &byte, 1), 0);
  ASSERT_GT(write_some(b.write_end.get(), &byte, 1), 0);
  loop.run();
  EXPECT_EQ(dispatched.load(), 1);
}

TEST(EventLoop, SetInterestTogglesWritability) {
  EventLoop loop;
  Pipe pipe;
  int writable_events = 0;
  loop.add_fd(pipe.write_end.get(), 0, [&](std::uint32_t events) {
    if (events & EventLoop::kWritable) {
      ++writable_events;
      loop.set_interest(pipe.write_end.get(), 0);  // disarm
      loop.run_after(std::chrono::milliseconds(10), [&] { loop.stop(); });
    }
  });
  // An empty pipe is immediately writable — but interest is 0, so nothing
  // dispatches until we arm it.
  loop.post([&] {
    loop.run_after(std::chrono::milliseconds(5), [&] {
      EXPECT_EQ(writable_events, 0);
      loop.set_interest(pipe.write_end.get(), EventLoop::kWritable);
    });
  });
  loop.run();
  EXPECT_EQ(writable_events, 1);
}

TEST(EventLoop, PostFromAnotherThreadWakesTheLoop) {
  EventLoop loop;
  std::atomic<bool> ran{false};
  std::thread runner([&] { loop.run(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // loop is idle
  loop.post([&] {
    ran.store(true);
    loop.stop();
  });
  runner.join();
  EXPECT_TRUE(ran.load());
}

}  // namespace
}  // namespace raptee::net
