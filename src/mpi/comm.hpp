// Communicator: the application-facing API of the SimMPI runtime.
//
// Matches the MPI subset the paper's systems need: blocking point-to-point
// with tags, one algorithm per collective built over p2p (a dissemination
// barrier, binomial-tree bcast and pipelined binomial reduce, allreduce as
// the two in turn, gather / allgather), and communicator splitting (HPL
// row/column communicators, encoding group communicators). Beyond MPI, a
// rank can lend a buffer to a peer, which reads it in place (lend/borrow).
// Every entry point checks node liveness, so a powered-off node unwinds the
// whole job just like a production MPI.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string_view>
#include <type_traits>
#include <vector>

#include "mpi/ops.hpp"
#include "mpi/runtime.hpp"
#include "sim/node.hpp"
#include "telemetry/metrics.hpp"

namespace skt::mpi {

/// Segment size of the pipelined reduce() (a parent combines one segment
/// while its children send the next) and of GroupCodec's folds of lent bytes.
inline constexpr std::size_t kCollectiveChunkBytes = 64 << 10;

class Comm {
 public:
  /// The world communicator for one rank thread; called by Runtime only.
  static Comm world(Runtime& rt, int my_world_rank);

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const { return static_cast<int>(group_->members.size()); }
  [[nodiscard]] int world_rank() const { return group_->members[static_cast<std::size_t>(rank_)]; }

  /// World rank of communicator member `member`.
  [[nodiscard]] int translate(int member) const {
    return group_->members.at(static_cast<std::size_t>(member));
  }

  /// Node id hosting communicator member `member`.
  [[nodiscard]] int node_id_of(int member) const {
    return rt_->node_id_of(translate(member));
  }

  // --- point-to-point ---------------------------------------------------

  /// Blocking send of raw bytes to member `dst` (rank within this comm).
  /// `tag` must be below kUserTagLimit.
  void send_bytes(int dst, Tag tag, std::span<const std::byte> payload);

  /// Zero-copy send: the buffer is moved into the mailbox instead of being
  /// copied. `payload` is left in the usual moved-from (valid, unspecified)
  /// state. Preferred for large stripe messages on the encode path.
  void send_bytes(int dst, Tag tag, std::vector<std::byte>&& payload);

  /// Blocking receive into `out`; the message size must equal out.size().
  void recv_bytes(int src, Tag tag, std::span<std::byte> out);

  /// Blocking receive of a message of unknown size.
  std::vector<std::byte> recv_any(int src, Tag tag);

  /// Zero-copy receive: returns the mailbox buffer itself after checking the
  /// size, so the caller can consume (or forward) it without another copy.
  std::vector<std::byte> recv_take(int src, Tag tag, std::size_t expected_bytes);

  template <typename T>
  void send(int dst, Tag tag, std::span<const T> data) {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(dst, tag, std::as_bytes(data));
  }

  template <typename T>
  void recv(int src, Tag tag, std::span<T> out) {
    static_assert(std::is_trivially_copyable_v<T>);
    recv_bytes(src, tag, std::as_writable_bytes(out));
  }

  template <typename T>
  void send_value(int dst, Tag tag, const T& value) {
    send<T>(dst, tag, std::span<const T>(&value, 1));
  }

  template <typename T>
  [[nodiscard]] T recv_value(int src, Tag tag) {
    T value{};
    recv<T>(src, tag, std::span<T>(&value, 1));
    return value;
  }

  // --- loans --------------------------------------------------------------
  // Ranks are threads of one address space, so a large payload can be lent
  // instead of copied: a loan is a rendezvous message that carries a view
  // of the lender's bytes, and the borrower reads them where they sit. A
  // lent byte counts once on the wire and is charged to both ends' modeled
  // clocks, as a send/recv pair is; it is never counted as copied.

  /// The lender's side of one loan. The lent bytes must stay alive and
  /// unchanged until wait() returns. Destroying an unsettled loan (the
  /// lender unwinding) aborts the job if it has not aborted already, so
  /// every borrower stops, then revokes the loan if nobody borrowed it or
  /// waits until the borrower's view is gone: the bytes are never freed
  /// under a reader.
  class Loan {
   public:
    Loan(Loan&& other) noexcept
        : rt_(other.rt_), lender_world_(other.lender_world_), state_(std::move(other.state_)) {}
    Loan(const Loan&) = delete;
    Loan& operator=(const Loan&) = delete;
    Loan& operator=(Loan&&) = delete;
    ~Loan();

    /// Block until the borrower has released its view. If the job aborts
    /// first, revoke the loan when nobody has borrowed it, or else wait
    /// for the view to go, and throw JobAborted.
    void wait();

   private:
    friend class Comm;
    Loan(Runtime& rt, int lender_world, std::shared_ptr<LoanState> state)
        : rt_(&rt), lender_world_(lender_world), state_(std::move(state)) {}
    /// Wait for the release or, once the job aborted, revoke an unborrowed
    /// loan; true when the borrower released it.
    bool settle();

    Runtime* rt_;
    int lender_world_;
    std::shared_ptr<LoanState> state_;
  };

  /// The borrower's view of a loan; releases it when destroyed.
  class Borrowed {
   public:
    Borrowed(Borrowed&& other) noexcept
        : rt_(other.rt_), lender_world_(other.lender_world_), state_(std::move(other.state_)) {}
    Borrowed(const Borrowed&) = delete;
    Borrowed& operator=(const Borrowed&) = delete;
    Borrowed& operator=(Borrowed&&) = delete;
    ~Borrowed();

    [[nodiscard]] std::size_t size() const { return state_->bytes.size(); }

    /// Bytes [offset, offset + len) of the loan. Throws JobAborted once the
    /// job has aborted, so a borrower that reads segment by segment stops
    /// within one segment and an unwinding lender waits no longer.
    [[nodiscard]] std::span<const std::byte> read(std::size_t offset, std::size_t len) const;

   private:
    friend class Comm;
    Borrowed(Runtime& rt, int lender_world, std::shared_ptr<LoanState> state)
        : rt_(&rt), lender_world_(lender_world), state_(std::move(state)) {}

    Runtime* rt_;
    int lender_world_;
    std::shared_ptr<LoanState> state_;
  };

  /// Lend `bytes` to member `dst`. Never blocks, like a send; the loan
  /// matches the borrow with the same (source, tag) in FIFO order among
  /// sends and loans alike.
  [[nodiscard]] Loan lend(int dst, Tag tag, std::span<const std::byte> bytes);

  /// Borrow the next loan from member `src` with `tag`; blocks like a
  /// receive. Its size must equal `size`. Throws JobAborted on an abort
  /// or when the lender revoked the loan, and std::logic_error when the
  /// matching message is a send.
  [[nodiscard]] Borrowed borrow(int src, Tag tag, std::size_t size);

  // --- collectives --------------------------------------------------------
  // All members must call each collective in the same order; rounds are
  // stamped with a per-communicator sequence number.

  void barrier();

  void bcast_bytes(int root, std::span<std::byte> data);

  template <typename T>
  void bcast(int root, std::span<T> data) {
    static_assert(std::is_trivially_copyable_v<T>);
    bcast_bytes(root, std::as_writable_bytes(data));
  }

  template <typename T>
  void bcast_value(int root, T& value) {
    bcast<T>(root, std::span<T>(&value, 1));
  }

  /// Element-wise reduction to `root`. `out` must alias or equal-size `in`
  /// at the root; it may be empty elsewhere. In-place (out.data()==in.data())
  /// is allowed.
  ///
  /// Binomial tree, pipelined in `chunk_bytes` segments so a parent combines
  /// chunk c while its children already transmit chunk c+1. Ranks that send
  /// without combining (odd relative rank) stream straight out of `in`;
  /// combining ranks consume the mailbox buffers in place and hand their
  /// accumulator to the mailbox by move when it fits one segment.
  template <typename T, typename Op>
  void reduce(int root, std::span<const T> in, std::span<T> out, Op op,
              std::size_t chunk_bytes = kCollectiveChunkBytes) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (root < 0 || root >= size()) throw std::invalid_argument("reduce: bad root");
    if (chunk_bytes == 0) throw std::invalid_argument("reduce: zero chunk size");
    // Payload-size histogram per collective; the registry reference is
    // resolved once per call site (see telemetry/metrics.hpp).
    static telemetry::Histogram& h_bytes =
        telemetry::metrics().histogram("mpi.coll.reduce_bytes", 1.0);
    h_bytes.record(static_cast<double>(in.size() * sizeof(T)));
    if (rank_ == root && out.size() != in.size()) {
      throw std::invalid_argument("reduce: bad out size at root");
    }
    const Tag seq = next_seq();
    const int n = size();
    const int relr = relative_rank(root);
    if (n == 1) {
      if (out.data() != in.data()) std::memcpy(out.data(), in.data(), in.size() * sizeof(T));
      return;
    }
    // Odd relative ranks send to their parent before ever combining, so
    // they need no local accumulator copy at all.
    const bool pure_sender = (relr & 1) != 0;
    std::vector<std::byte> accum;
    if (!pure_sender) {
      accum.resize(in.size() * sizeof(T));
      if (!in.empty()) std::memcpy(accum.data(), in.data(), accum.size());
    }
    const std::size_t chunk_elems = std::max<std::size_t>(1, chunk_bytes / sizeof(T));
    const std::size_t chunks = in.empty() ? 1 : (in.size() + chunk_elems - 1) / chunk_elems;
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t off = c * chunk_elems;
      const std::size_t len = in.empty() ? 0 : std::min(chunk_elems, in.size() - off);
      for (int mask = 1; mask < n; mask <<= 1) {
        const Tag tag = collective_tag(seq, std::countr_zero(static_cast<unsigned>(mask)));
        if (relr & mask) {
          const int dst = absolute_rank(relr - mask, root);
          if (pure_sender) {
            send<T>(dst, tag, in.subspan(off, len));
          } else if (chunks == 1) {
            send_bytes(dst, tag, std::move(accum));
          } else {
            send_bytes(dst, tag, std::span<const std::byte>(accum.data() + off * sizeof(T),
                                                            len * sizeof(T)));
          }
          break;
        }
        const int src_rel = relr + mask;
        if (src_rel < n) {
          const int src = absolute_rank(src_rel, root);
          const std::vector<std::byte> incoming = recv_take(src, tag, len * sizeof(T));
          combine_inplace<T, Op>(
              std::span<T>(reinterpret_cast<T*>(accum.data()) + off, len),
              std::span<const T>(reinterpret_cast<const T*>(incoming.data()), len), op);
        }
      }
    }
    if (rank_ == root && !in.empty()) {
      std::memcpy(out.data(), accum.data(), out.size() * sizeof(T));
    }
  }

  /// The pipelined reduce to rank 0, then the binomial bcast of its result.
  /// That puts 2(n-1) times the payload on the wire, as a ring allreduce
  /// does; the ring only spreads those bytes evenly over the ranks, at about
  /// n times the messages. In-place (out aliasing in) is allowed.
  template <typename T, typename Op>
  void allreduce(std::span<const T> in, std::span<T> out, Op op) {
    if (out.size() != in.size()) throw std::invalid_argument("allreduce: size mismatch");
    static telemetry::Histogram& h_bytes =
        telemetry::metrics().histogram("mpi.coll.allreduce_bytes", 1.0);
    h_bytes.record(static_cast<double>(in.size() * sizeof(T)));
    reduce<T, Op>(0, in, out, op);
    bcast<T>(0, out);
  }

  template <typename T, typename Op>
  [[nodiscard]] T allreduce_value(const T& value, Op op) {
    T in = value;
    T out{};
    allreduce<T, Op>(std::span<const T>(&in, 1), std::span<T>(&out, 1), op);
    return out;
  }

  /// Equal-contribution gather: every member contributes in.size() elements;
  /// the root's return value holds size()*in.size() elements in rank order.
  /// Non-roots receive an empty vector.
  template <typename T>
  [[nodiscard]] std::vector<T> gather(int root, std::span<const T> in) {
    static_assert(std::is_trivially_copyable_v<T>);
    static telemetry::Histogram& h_bytes =
        telemetry::metrics().histogram("mpi.coll.gather_bytes", 1.0);
    h_bytes.record(static_cast<double>(in.size() * sizeof(T)));
    const Tag seq = next_seq();
    const Tag tag = collective_tag(seq, 0);
    if (rank_ != root) {
      send<T>(root, tag, in);
      return {};
    }
    std::vector<T> all(static_cast<std::size_t>(size()) * in.size());
    for (int r = 0; r < size(); ++r) {
      std::span<T> slot(all.data() + static_cast<std::size_t>(r) * in.size(), in.size());
      if (r == root) {
        std::memcpy(slot.data(), in.data(), in.size() * sizeof(T));
      } else {
        recv<T>(r, tag, slot);
      }
    }
    return all;
  }

  template <typename T>
  [[nodiscard]] std::vector<T> allgather(std::span<const T> in) {
    std::vector<T> all = gather<T>(0, in);
    if (rank_ != 0) all.resize(static_cast<std::size_t>(size()) * in.size());
    bcast<T>(0, std::span<T>(all));
    return all;
  }

  /// MPI_Comm_split: members with the same color form a new communicator,
  /// ordered by (key, parent rank). color must be >= 0.
  [[nodiscard]] Comm split(int color, int key);

  /// MPI_Comm_dup, communication-free: same members and ranks, but a fresh
  /// communicator id and collective sequence, so traffic on the duplicate
  /// never matches traffic on the parent. This is how a second thread of
  /// the same rank (the async checkpoint worker) gets communicators it can
  /// use concurrently with the rank thread: a Comm object is NOT
  /// thread-safe, but two Comms of the same rank with distinct ids are —
  /// the mailbox keys every message by (source, tag, comm id).
  ///
  /// Determinism contract (like any collective): all members must call
  /// dup() on their handle of this communicator the same number of times,
  /// in the same order relative to other dup() calls on it. The n-th dup
  /// of a given communicator yields the same id on every member.
  [[nodiscard]] Comm dup();

  // --- environment --------------------------------------------------------

  [[nodiscard]] sim::Node& node() { return rt_->node_of(world_rank()); }
  [[nodiscard]] sim::PersistentStore& store() { return node().store(); }
  [[nodiscard]] Runtime& runtime() { return *rt_; }

  /// Deterministic failure hook; may power off this rank's node and throw
  /// JobAborted. Also a cancellation point for external aborts.
  void failpoint(std::string_view name);

  /// Charge simulated seconds to this rank's virtual clock.
  void charge_virtual(double seconds) { rt_->charge_rank_virtual(world_rank(), seconds); }
  [[nodiscard]] double virtual_seconds() const { return rt_->rank_virtual(world_rank()); }

  /// Payload bytes this handle has put on the wire (sends and loans), and
  /// the modeled network seconds its messages have charged to the rank's
  /// virtual clock (both ends of a message charge their own handle).
  /// Counted per handle, from zero at creation: a collective's traffic
  /// reads apart from what the rank's other handles (an async worker's
  /// dup(), the application's) move meanwhile, which the job-wide
  /// Runtime::wire_bytes() and the shared virtual_seconds() both include.
  [[nodiscard]] std::uint64_t sent_bytes() const { return sent_bytes_; }
  [[nodiscard]] double network_seconds() const { return network_s_; }

  /// Reserve the next collective sequence number, as every collective
  /// does, and return a tag that carries it: traffic stamped with it
  /// matches no user tag, no other collective and nothing on a dup().
  /// Members must reserve in the same order as their other collectives.
  /// For collectives built outside this class from p2p calls and loans.
  [[nodiscard]] Tag reserve_tag() { return collective_tag(next_seq(), 0); }

  void record_time(const std::string& name, double seconds) { rt_->record_time(name, seconds); }

 private:
  struct Group {
    std::uint64_t id = 0;
    std::vector<int> members;  // world ranks
  };

  Comm(Runtime& rt, std::shared_ptr<const Group> group, int rank)
      : rt_(&rt), group_(std::move(group)), rank_(rank) {}

  [[nodiscard]] Tag next_seq() { return collective_seq_++; }
  [[nodiscard]] static Tag collective_tag(Tag seq, int round) {
    return kUserTagLimit + seq * 256 + round;
  }
  [[nodiscard]] int relative_rank(int root) const { return (rank_ - root + size()) % size(); }
  [[nodiscard]] int absolute_rank(int rel, int root) const { return (rel + root) % size(); }

  /// Charge one message end's modeled cost to the rank and this handle.
  void charge_network(double cost) {
    if (cost <= 0) return;
    charge_virtual(cost);
    network_s_ += cost;
  }

  Runtime* rt_;
  std::shared_ptr<const Group> group_;
  int rank_;
  Tag collective_seq_ = 0;
  int dup_count_ = 0;  ///< how many times dup() was called on this handle
  std::uint64_t sent_bytes_ = 0;
  double network_s_ = 0.0;
};

}  // namespace skt::mpi
