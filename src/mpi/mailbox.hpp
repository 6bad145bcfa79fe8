// Per-rank mailbox: an unordered message pool with (source, tag, comm)
// matching and FIFO delivery within a match class, mirroring MPI ordering
// guarantees. Receives block until a match arrives or the job aborts; a
// loan (message.hpp) is matched like any other message.
#pragma once

#include <atomic>
#include <condition_variable>
#include <list>
#include <mutex>
#include <optional>

#include "mpi/message.hpp"

namespace skt::mpi {

class Mailbox {
 public:
  void push(Message msg);

  /// Block until a message matching (src_world, tag, comm_id) is available,
  /// or `aborted` becomes true. Returns nullopt on abort.
  std::optional<Message> pop(int src_world, Tag tag, std::uint64_t comm_id,
                             const std::atomic<bool>& aborted);

  /// Block until `ready()` holds. It is evaluated under this mailbox's
  /// lock on entry and again after every push() and interrupt(). A lender
  /// waits for its loans here (Comm::Loan), so a borrower's release and a
  /// job abort both wake it.
  template <typename Pred>
  void await(Pred ready) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, ready);
  }

  /// Wake every thread blocked in pop() or await() so it rechecks its
  /// condition: an abort flag, or a loan's phase.
  void interrupt();

  /// Number of queued (unmatched) messages; used by tests.
  [[nodiscard]] std::size_t pending() const;

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::list<Message> messages_;
};

}  // namespace skt::mpi
