// perfbench-spawn — runs one command and records its wall time, CPU time and
// peak RSS.
//
//   perfbench-spawn STATS_FILE CMD [ARGS...]
//
// Writes "<exit code> <start_s> <end_s> <max RSS kB> <cpu_s>" to STATS_FILE,
// with start and end on the monotonic clock and cpu_s the command's user plus
// system time, and exits with the command's code.
// The runner starts every measured process through this small launcher:
// a child's ru_maxrss includes the memory of the process that spawned it,
// so spawning directly from the Python runner would report the runner's
// own peak.  SIGTERM kills the command and still records it.
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <ctime>

namespace {

volatile sig_atomic_t child_pid = 0;

void on_term(int) {
  if (child_pid > 0) kill(child_pid, SIGKILL);
}

double monotonic_s() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: perfbench-spawn STATS_FILE CMD [ARGS...]\n");
    return 2;
  }
  std::signal(SIGTERM, on_term);
  const double start = monotonic_s();
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("perfbench-spawn: fork");
    return 127;
  }
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the launcher
    execvp(argv[2], argv + 2);
    std::perror("perfbench-spawn: exec");
    _exit(127);
  }
  child_pid = pid;
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  const double end = monotonic_s();
  const int code = WIFEXITED(status) ? WEXITSTATUS(status)
                                     : 128 + WTERMSIG(status);
  std::FILE* out = std::fopen(argv[1], "w");
  if (out == nullptr) {
    std::perror("perfbench-spawn: stats file");
    return code != 0 ? code : 1;
  }
  const double cpu =
      static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
      1e-6 * static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
  std::fprintf(out, "%d %.9f %.9f %ld %.6f\n", code, start, end,
               usage.ru_maxrss, cpu);
  std::fclose(out);
  return code;
}
