// Test helpers for the serving stack: InferenceServer submissions through
// its one entry point (SubmitBatch), and whole NDJSON sessions served over
// an adopted fd pair, the transport `kdsel serve` uses for stdin/stdout.

#ifndef KDSEL_TESTS_SERVE_TEST_UTIL_H_
#define KDSEL_TESTS_SERVE_TEST_UTIL_H_

#include <fcntl.h>
#include <poll.h>
#include <stdlib.h>
#include <unistd.h>

#include <future>
#include <latch>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "net/server.h"
#include "serve/server.h"

namespace kdsel::serve_test {

using Reply = StatusOr<serve::SelectResponse>;

/// Hands `requests` to the server in ONE SubmitBatch (admitted under one
/// lock, as one epoll wake submits) and returns a future per reply.
inline std::vector<std::future<Reply>> SubmitTogether(
    serve::InferenceServer& server,
    std::vector<serve::SelectRequest> requests) {
  std::vector<std::future<Reply>> futures;
  std::vector<serve::InferenceServer::AsyncItem> items(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    auto reply = std::make_shared<std::promise<Reply>>();
    futures.push_back(reply->get_future());
    items[i].request = std::move(requests[i]);
    items[i].done = [reply](Reply response) {
      reply->set_value(std::move(response));
    };
  }
  server.SubmitBatch(std::move(items));
  return futures;
}

/// Hands `request` to the server as a one-item SubmitBatch (so each call
/// is admitted on its own) and returns a future for its reply.
inline std::future<Reply> SubmitOne(serve::InferenceServer& server,
                                    serve::SelectRequest request) {
  std::vector<serve::SelectRequest> one;
  one.push_back(std::move(request));
  return std::move(SubmitTogether(server, std::move(one)).front());
}

/// Submits one request and waits for its reply.
inline Reply RunRequest(serve::InferenceServer& server,
                        serve::SelectRequest request) {
  return SubmitOne(server, std::move(request)).get();
}

/// Holds `count` of a started server's workers busy: each takes its own
/// copy of `request`, whose `done` blocks until Release() (or
/// destruction). The constructor returns once every held callback has
/// been entered, so later submissions queue up until the release.
class HeldWorkers {
 public:
  HeldWorkers(serve::InferenceServer& server,
              const serve::SelectRequest& request, size_t count) {
    for (size_t i = 0; i < count; ++i) {
      // One at a time: an idle worker would take two queued holds as one
      // batch and leave another worker free.
      auto entered = std::make_shared<std::latch>(1);
      std::vector<serve::InferenceServer::AsyncItem> items(1);
      items[0].request = request;
      items[0].done = [entered, release = release_](Reply reply) {
        KDSEL_CHECK(reply.ok());
        entered->count_down();
        release->wait();
      };
      server.SubmitBatch(std::move(items));
      entered->wait();
    }
  }
  ~HeldWorkers() { Release(); }

  HeldWorkers(const HeldWorkers&) = delete;
  HeldWorkers& operator=(const HeldWorkers&) = delete;

  void Release() {
    if (!released_) release_->count_down();
    released_ = true;
  }

 private:
  std::shared_ptr<std::latch> release_ = std::make_shared<std::latch>(1);
  bool released_ = false;
};

/// What the server's ends of an adopted session are.
enum class SessionFds { kPipes, kFiles };

/// Outcome of one NDJSON session served over an adopted fd pair.
struct AdoptedSession {
  std::string output;          ///< Every byte the server wrote back.
  bool fds_untouched = false;  ///< Both fds still open, F_GETFL unchanged.
};

/// Serves `input` as one session over an adopted fd pair on a fresh
/// one-shard NetServer with no listening socket, and returns what came
/// back once the session closed. Pipes are fed and drained from this
/// thread while the server runs; a file is written before the session
/// and read after it.
inline AdoptedSession RunAdoptedSession(
    serve::InferenceServer& server, const std::string& input,
    SessionFds kind = SessionFds::kPipes,
    net::NetServerOptions options = {}) {
  int in_fd = -1, out_fd = -1;  // The server's ends.
  int feed = -1, drain = -1;    // This thread's ends.
  if (kind == SessionFds::kPipes) {
    int in_pipe[2], out_pipe[2];
    KDSEL_CHECK(pipe(in_pipe) == 0 && pipe(out_pipe) == 0);
    in_fd = in_pipe[0];
    feed = in_pipe[1];
    drain = out_pipe[0];
    out_fd = out_pipe[1];
    KDSEL_CHECK(fcntl(feed, F_SETFL, O_NONBLOCK) == 0 &&
                fcntl(drain, F_SETFL, O_NONBLOCK) == 0);
  } else {
    char in_path[] = "/tmp/kdsel_session_in_XXXXXX";
    char out_path[] = "/tmp/kdsel_session_out_XXXXXX";
    const int writer = mkstemp(in_path);
    KDSEL_CHECK(writer >= 0);
    KDSEL_CHECK(write(writer, input.data(), input.size()) ==
                static_cast<ssize_t>(input.size()));
    close(writer);
    in_fd = open(in_path, O_RDONLY);
    out_fd = mkstemp(out_path);
    drain = open(out_path, O_RDONLY);
    unlink(in_path);
    unlink(out_path);
    KDSEL_CHECK(in_fd >= 0 && out_fd >= 0 && drain >= 0);
  }
  const int in_flags = fcntl(in_fd, F_GETFL);
  const int out_flags = fcntl(out_fd, F_GETFL);

  AdoptedSession session;
  auto read_available = [&] {
    char buffer[4096];
    ssize_t n;
    while ((n = read(drain, buffer, sizeof(buffer))) > 0) {
      session.output.append(buffer, static_cast<size_t>(n));
    }
  };
  options.listen = "";
  options.shards = 1;
  {
    net::NetServer net(&server, options);
    KDSEL_CHECK(net.Adopt(in_fd, out_fd).ok());
    KDSEL_CHECK(net.Start().ok());
    size_t fed = 0;
    for (;;) {
      if (feed >= 0 && fed == input.size()) {
        close(feed);  // EOF for the server.
        feed = -1;
      }
      pollfd fds[3] = {};
      fds[0].fd = net.adopted_done_fd();
      fds[0].events = POLLIN;
      fds[1].fd = kind == SessionFds::kPipes ? drain : -1;
      fds[1].events = POLLIN;
      fds[2].fd = feed;
      fds[2].events = POLLOUT;
      KDSEL_CHECK(poll(fds, 3, -1) > 0);
      if (fds[2].revents != 0) {
        const ssize_t n = write(feed, input.data() + fed, input.size() - fed);
        if (n > 0) fed += static_cast<size_t>(n);
      }
      if (fds[1].revents != 0) read_available();
      if (fds[0].revents != 0) break;
    }
  }
  read_available();
  session.fds_untouched = fcntl(in_fd, F_GETFL) == in_flags &&
                          fcntl(out_fd, F_GETFL) == out_flags;
  for (const int fd : {in_fd, out_fd, feed, drain}) {
    if (fd >= 0) close(fd);
  }
  return session;
}

/// Splits NDJSON output into its lines.
inline std::vector<std::string> Lines(const std::string& output) {
  std::vector<std::string> lines;
  size_t start = 0;
  for (size_t end; (end = output.find('\n', start)) != std::string::npos;
       start = end + 1) {
    lines.push_back(output.substr(start, end - start));
  }
  return lines;
}

}  // namespace kdsel::serve_test

#endif  // KDSEL_TESTS_SERVE_TEST_UTIL_H_
