#ifndef HYPERMINE_TESTS_TESTING_PROCESS_THREADS_H_
#define HYPERMINE_TESTS_TESTING_PROCESS_THREADS_H_

// Counts this process's threads, so a test can check how many threads a
// component starts.

#include <chrono>
#include <cstddef>
#include <filesystem>
#include <system_error>
#include <thread>

namespace hypermine::testing {

/// Threads in this process, read from /proc/self/task once two reads a
/// millisecond apart agree (a joined thread can linger there a moment);
/// 0 when the directory cannot be read.
inline size_t ProcessThreads() {
  auto count = []() -> size_t {
    std::error_code error;
    std::filesystem::directory_iterator it("/proc/self/task", error);
    size_t n = 0;
    for (; !error && it != std::filesystem::directory_iterator();
         it.increment(error)) {
      ++n;
    }
    return error ? 0 : n;
  };
  size_t last = count();
  for (int i = 0; i < 100; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const size_t now = count();
    if (now == last) break;
    last = now;
  }
  return last;
}

}  // namespace hypermine::testing

#endif  // HYPERMINE_TESTS_TESTING_PROCESS_THREADS_H_
