// pg_measure — runs one command and measures it from outside: wall time
// from fork to exit, and the resource usage of its whole process tree.
//
//   pg_measure RESULT_FILE TIMEOUT_S COMMAND [ARGS...]
//
// Writes one line "wall_s cpu_s maxrss_kb exit_code" to RESULT_FILE and
// exits 0; exit_code is the command's exit status, or 128 + signal.
//
// wait4() returns the child's rusage including every descendant it reaped
// (a sweep's --spawn shard children), so cpu_s is user+sys of the tree and
// maxrss the RSS of its largest process.  The command is forked from this
// small process rather than from the benchmark's Python interpreter,
// because Linux carries the RSS high-water mark of the forking image
// across exec: a command forked from Python would report at least
// Python's own RSS.  A command still running after TIMEOUT_S is killed.
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>

namespace {

pid_t child = -1;

void on_alarm(int) {
  if (child > 0) ::kill(child, SIGKILL);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: pg_measure RESULT_FILE TIMEOUT_S COMMAND [ARGS...]\n");
    return 2;
  }
  const auto started = std::chrono::steady_clock::now();
  child = ::fork();
  if (child < 0) {
    std::perror("pg_measure: fork");
    return 2;
  }
  if (child == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the measurer
    ::execvp(argv[3], argv + 3);
    std::perror("pg_measure: exec");
    ::_exit(127);
  }
  std::signal(SIGALRM, on_alarm);
  ::alarm(static_cast<unsigned>(std::atoi(argv[2])));
  int status = 0;
  struct rusage usage {};
  while (::wait4(child, &status, 0, &usage) < 0) {
    if (errno != EINTR) {
      std::perror("pg_measure: wait4");
      return 2;
    }
  }
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - started)
                          .count();
  const double cpu =
      static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
      static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
          1e-6;
  const int code = WIFEXITED(status) ? WEXITSTATUS(status)
                                     : 128 + WTERMSIG(status);
  std::FILE* out = std::fopen(argv[1], "w");
  if (out == nullptr) {
    std::perror("pg_measure: result file");
    return 2;
  }
  std::fprintf(out, "%.9f %.6f %ld %d\n", wall, cpu, usage.ru_maxrss, code);
  return std::fclose(out) == 0 ? 0 : 2;
}
