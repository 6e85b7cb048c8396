#include "net/signal.h"

#include <csignal>
#include <cstring>

#include <poll.h>
#include <sys/eventfd.h>
#include <unistd.h>

namespace kdsel::net {

namespace {

volatile std::sig_atomic_t g_shutdown = 0;
int g_shutdown_fd = -1;

void OnShutdownSignal(int /*signo*/) {
  g_shutdown = 1;
  if (g_shutdown_fd >= 0) {
    const uint64_t one = 1;
    // write(2) is async-signal-safe; the result is advisory (the flag
    // alone is enough for pollers that time out).
    [[maybe_unused]] ssize_t n =
        write(g_shutdown_fd, &one, sizeof(one));
  }
}

}  // namespace

Status InstallShutdownHandlers() {
  if (g_shutdown_fd >= 0) return Status::OK();
  const int fd = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (fd < 0) {
    return Status::IoError(std::string("eventfd: ") + std::strerror(errno));
  }
  g_shutdown_fd = fd;

  struct sigaction action = {};
  action.sa_handler = OnShutdownSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // Deliberately no SA_RESTART: see the header.
  if (sigaction(SIGINT, &action, nullptr) != 0 ||
      sigaction(SIGTERM, &action, nullptr) != 0) {
    return Status::IoError(std::string("sigaction: ") + std::strerror(errno));
  }
  return Status::OK();
}

bool ShutdownRequested() { return g_shutdown != 0; }

int ShutdownEventFd() { return g_shutdown_fd; }

void RequestShutdownForTesting() { OnShutdownSignal(SIGTERM); }

void WaitForShutdownSignal(int done_fd) {
  while (!ShutdownRequested()) {
    // poll(2) skips a negative fd, so -1 waits for the signal alone.
    pollfd pfd[2] = {};
    pfd[0].fd = g_shutdown_fd;
    pfd[0].events = POLLIN;
    pfd[1].fd = done_fd;
    pfd[1].events = POLLIN;
    // The timeout covers the (unlikely) install-less caller and the
    // race where the signal lands between the flag check and poll().
    poll(pfd, 2, 200);
    if (pfd[1].revents != 0) return;
  }
}

}  // namespace kdsel::net
