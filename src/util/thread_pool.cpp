#include "util/thread_pool.hpp"

#include <algorithm>

namespace hprng::util {

ThreadPool::ThreadPool(std::size_t num_workers) {
  workers_.reserve(num_workers);
  for (std::size_t i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  if (workers_.empty()) {
    task();
    return;
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  if (workers_.empty()) return;
  std::unique_lock<std::mutex> lk(mu_);
  cv_idle_.wait(lk, [this] { return in_flight_ == 0 && tasks_.empty(); });
}

void ThreadPool::parallel_for(std::uint64_t begin, std::uint64_t end,
                              const std::function<void(std::uint64_t)>& fn) {
  if (begin >= end) return;
  const std::uint64_t n = end - begin;
  const std::size_t parts = workers_.empty() ? 1 : workers_.size();
  if (parts == 1) {
    for (std::uint64_t i = begin; i < end; ++i) fn(i);
    return;
  }
  const std::uint64_t chunk = (n + parts - 1) / parts;
  // `remaining` lives on this frame, so a task may only touch it (and the
  // mutex/condvar) while holding done_mu: the waiter cannot observe zero
  // and return until the last task has released the lock.
  std::size_t remaining = static_cast<std::size_t>((n + chunk - 1) / chunk);
  std::mutex done_mu;
  std::condition_variable done_cv;
  for (std::uint64_t lo = begin; lo < end; lo += chunk) {
    const std::uint64_t hi = std::min(end, lo + chunk);
    submit([&, lo, hi] {
      for (std::uint64_t i = lo; i < hi; ++i) fn(i);
      std::lock_guard<std::mutex> lk(done_mu);
      if (--remaining == 0) done_cv.notify_one();
    });
  }
  std::unique_lock<std::mutex> lk(done_mu);
  done_cv.wait(lk, [&] { return remaining == 0; });
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(std::max<std::size_t>(
      1, std::thread::hardware_concurrency()) - 1);
  return pool;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_task_.wait(lk, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      std::lock_guard<std::mutex> lk(mu_);
      --in_flight_;
      if (in_flight_ == 0 && tasks_.empty()) cv_idle_.notify_all();
    }
  }
}

}  // namespace hprng::util
