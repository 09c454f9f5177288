// perfbench_rss_probe: stands in for dftmsn_cli as ckpt_recovery's worker
// executable so that each worker's own peak RSS can be read.
//
// The supervisor posix_spawns its workers, and a worker spawned that way
// takes on the supervisor's peak RSS when it execs, so the supervisor's
// RUSAGE_CHILDREN shows the larger of the two. This probe, spawned in
// the worker's place, forks (its own peak is a few MB), execs the CLI
// named by $PERFBENCH_WORKER_CLI with the same arguments, reaps it with
// wait4, appends the CLI's ru_maxrss (KiB) as one line to
// $PERFBENCH_RSS_LOG, and then ends the way the CLI ended: the same exit
// code, or death by the same signal. The CLI dies with the probe
// (PR_SET_PDEATHSIG), so a watchdog SIGKILL still stops the worker.
#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>

int main(int argc, char** argv) {
  const char* cli = std::getenv("PERFBENCH_WORKER_CLI");
  const char* log = std::getenv("PERFBENCH_RSS_LOG");
  if (cli == nullptr || log == nullptr || argc < 1) {
    std::fprintf(stderr, "perfbench_rss_probe: PERFBENCH_WORKER_CLI and "
                         "PERFBENCH_RSS_LOG must be set\n");
    return 2;
  }
  const pid_t probe = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("perfbench_rss_probe: fork");
    return 2;
  }
  if (pid == 0) {
    if (::prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 || ::getppid() != probe)
      ::_exit(2);
    argv[0] = const_cast<char*>(cli);
    ::execv(cli, argv);
    std::perror("perfbench_rss_probe: exec");
    ::_exit(127);
  }

  int status = 0;
  rusage ru{};
  while (::wait4(pid, &status, 0, &ru) < 0) {
    if (errno != EINTR) {
      std::perror("perfbench_rss_probe: wait4");
      return 2;
    }
  }
  // One short O_APPEND write per worker: concurrent probes never
  // interleave. A lost line is caught by the benchmark's line count.
  char line[32];
  const int len = std::snprintf(line, sizeof line, "%ld\n", ru.ru_maxrss);
  const int fd = ::open(log, O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0 || ::write(fd, line, len) != len)
    std::perror("perfbench_rss_probe: cannot append to PERFBENCH_RSS_LOG");
  if (fd >= 0) ::close(fd);

  if (WIFSIGNALED(status)) {
    const int sig = WTERMSIG(status);
    std::signal(sig, SIG_DFL);
    ::raise(sig);
    return 128 + sig;  // only reached if the signal does not kill
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : 2;
}
