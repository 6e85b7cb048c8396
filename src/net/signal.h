#ifndef KDSEL_NET_SIGNAL_H_
#define KDSEL_NET_SIGNAL_H_

#include "common/status.h"

namespace kdsel::net {

/// Installs SIGINT/SIGTERM handlers for graceful shutdown. The handler
/// is async-signal-safe: it sets a flag and writes one byte to an
/// internal eventfd so event loops blocked in epoll_wait (or a caller
/// blocked in WaitForShutdownSignal) wake immediately.
///
/// Handlers are installed WITHOUT SA_RESTART, so `kdsel stream`'s stdin
/// loop pops out of its blocking getline with EOF, drains in-flight
/// requests and prints final stats instead of dying mid-write. Call
/// once; subsequent calls are no-ops.
Status InstallShutdownHandlers();

/// True once SIGINT or SIGTERM has been delivered.
bool ShutdownRequested();

/// The eventfd the handler signals; poll it (POLLIN) to wake on
/// shutdown. Owned by the process; never close it. Returns -1 before
/// InstallShutdownHandlers().
int ShutdownEventFd();

/// Blocks until SIGINT/SIGTERM arrives (returns immediately if one
/// already did) or, when `done_fd` >= 0, until `done_fd` turns readable
/// (e.g. NetServer::adopted_done_fd(): the stdin session ended).
void WaitForShutdownSignal(int done_fd = -1);

/// Test hook: pretends a signal arrived (same code path as the real
/// handler, minus the kernel).
void RequestShutdownForTesting();

}  // namespace kdsel::net

#endif  // KDSEL_NET_SIGNAL_H_
