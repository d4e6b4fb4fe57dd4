// Host and process readings from /proc (Linux only, like the server).
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <fstream>
#include <sstream>
#include <string>

#include "perfbench.h"

namespace hypermine::perfbench {

CpuTicks ReadCpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  uint64_t user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0,
           softirq = 0, steal = 0;
  stat >> cpu >> user >> nice >> system >> idle >> iowait >> irq >> softirq >>
      steal;
  CpuTicks ticks;
  ticks.steal = steal;
  // Guest time is already inside user; steal is not inside anything else.
  ticks.total = user + nice + system + idle + iowait + irq + softirq + steal;
  return ticks;
}

double StealPct(const CpuTicks& before, const CpuTicks& after) {
  const uint64_t total = after.total - before.total;
  if (total == 0) return 0.0;
  return 100.0 * static_cast<double>(after.steal - before.steal) /
         static_cast<double>(total);
}

double ProcessCpuSeconds() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

void ResetPeakRss() {
  // Freed set-up memory would otherwise still count as resident.
  ::malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::istringstream fields(line.substr(6));
    double kib = 0.0;
    fields >> kib;
    return kib / 1024.0;
  }
  return 0.0;
}

size_t Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<size_t>(CPU_COUNT(&set));
}

}  // namespace hypermine::perfbench
