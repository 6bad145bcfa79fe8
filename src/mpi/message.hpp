// Wire-level message representation for the SimMPI runtime.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace skt::mpi {

using Tag = std::int64_t;

/// Tags below this are reserved for user point-to-point traffic; internal
/// collective rounds are stamped above it with a per-communicator sequence
/// number so overlapping collectives on split communicators cannot cross.
inline constexpr Tag kUserTagLimit = Tag{1} << 20;

/// What a lender and its borrower share for one loan (Comm::lend): a view
/// of the lender's bytes and how far the hand-over got. The phase only
/// moves forward: kLent -> kBorrowed -> kReleased, or kLent -> kRevoked
/// when the lender unwinds before anyone borrowed it.
struct LoanState {
  enum Phase : int { kLent, kBorrowed, kReleased, kRevoked };
  std::span<const std::byte> bytes;
  std::atomic<int> phase{kLent};
};

struct Message {
  int src_world = -1;        ///< sender's world rank
  Tag tag = 0;
  std::uint64_t comm_id = 0; ///< communicator the message belongs to
  std::vector<std::byte> payload;
  /// Set on a loan, whose payload stays empty: the borrower reads the
  /// lender's bytes through it instead.
  std::shared_ptr<LoanState> loan;
};

}  // namespace skt::mpi
