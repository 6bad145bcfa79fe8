#include "mpi/comm.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <tuple>

#include "telemetry/health.hpp"
#include "telemetry/trace.hpp"
#include "util/rng.hpp"

namespace skt::mpi {

Comm Comm::world(Runtime& rt, int my_world_rank) {
  auto group = std::make_shared<Group>();
  group->id = 0;
  group->members.resize(static_cast<std::size_t>(rt.world_size()));
  for (int r = 0; r < rt.world_size(); ++r) group->members[static_cast<std::size_t>(r)] = r;
  return Comm(rt, std::move(group), my_world_rank);
}

void Comm::send_bytes(int dst, Tag tag, std::span<const std::byte> payload) {
  rt_->count_copy(payload.size());
  send_bytes(dst, tag, std::vector<std::byte>(payload.begin(), payload.end()));
}

void Comm::send_bytes(int dst, Tag tag, std::vector<std::byte>&& payload) {
  if (dst < 0 || dst >= size()) throw std::invalid_argument("send: bad destination rank");
  rt_->check_alive(world_rank());
  const int dst_world = translate(dst);
  charge_network(rt_->message_cost(world_rank(), dst_world, payload.size()));
  rt_->count_message(payload.size());
  sent_bytes_ += payload.size();
  Message msg;
  msg.src_world = world_rank();
  msg.tag = tag;
  msg.comm_id = group_->id;
  msg.payload = std::move(payload);
  rt_->mailbox(dst_world).push(std::move(msg));
}

void Comm::recv_bytes(int src, Tag tag, std::span<std::byte> out) {
  const std::vector<std::byte> payload = recv_take(src, tag, out.size());
  rt_->count_copy(payload.size());
  if (!payload.empty()) std::memcpy(out.data(), payload.data(), payload.size());
}

std::vector<std::byte> Comm::recv_take(int src, Tag tag, std::size_t expected_bytes) {
  std::vector<std::byte> payload = recv_any(src, tag);
  if (payload.size() != expected_bytes) {
    throw std::logic_error("recv: message size mismatch (expected " +
                           std::to_string(expected_bytes) + ", got " +
                           std::to_string(payload.size()) + ")");
  }
  return payload;
}

std::vector<std::byte> Comm::recv_any(int src, Tag tag) {
  if (src < 0 || src >= size()) throw std::invalid_argument("recv: bad source rank");
  rt_->check_alive(world_rank());
  const int src_world = translate(src);
  auto msg = rt_->mailbox(world_rank()).pop(src_world, tag, group_->id, rt_->aborted_flag());
  if (!msg.has_value()) throw JobAborted("receive interrupted by job abort");
  if (msg->loan != nullptr) throw std::logic_error("recv: the matching message is a loan");
  rt_->check_alive(world_rank());
  charge_network(rt_->message_cost(src_world, world_rank(), msg->payload.size()));
  return std::move(msg->payload);
}

Comm::Loan Comm::lend(int dst, Tag tag, std::span<const std::byte> bytes) {
  if (dst < 0 || dst >= size()) throw std::invalid_argument("lend: bad destination rank");
  rt_->check_alive(world_rank());
  const int dst_world = translate(dst);
  charge_network(rt_->message_cost(world_rank(), dst_world, bytes.size()));
  rt_->count_message(bytes.size());
  sent_bytes_ += bytes.size();
  auto state = std::make_shared<LoanState>();
  state->bytes = bytes;
  Loan loan(*rt_, world_rank(), state);
  Message msg;
  msg.src_world = world_rank();
  msg.tag = tag;
  msg.comm_id = group_->id;
  msg.loan = std::move(state);
  rt_->mailbox(dst_world).push(std::move(msg));
  return loan;
}

Comm::Borrowed Comm::borrow(int src, Tag tag, std::size_t size) {
  if (src < 0 || src >= this->size()) throw std::invalid_argument("borrow: bad source rank");
  rt_->check_alive(world_rank());
  const int src_world = translate(src);
  auto msg = rt_->mailbox(world_rank()).pop(src_world, tag, group_->id, rt_->aborted_flag());
  if (!msg.has_value()) throw JobAborted("borrow interrupted by job abort");
  if (msg->loan == nullptr) throw std::logic_error("borrow: the matching message is a send");
  int lent = LoanState::kLent;
  if (!msg->loan->phase.compare_exchange_strong(lent, LoanState::kBorrowed,
                                                std::memory_order_acq_rel)) {
    throw JobAborted("borrow: the lender revoked its loan while unwinding");
  }
  // From here the view's destructor releases the loan, on every path.
  Borrowed view(*rt_, src_world, std::move(msg->loan));
  if (view.size() != size) {
    throw std::logic_error("borrow: loan size mismatch (expected " + std::to_string(size) +
                           ", got " + std::to_string(view.size()) + ")");
  }
  rt_->check_alive(world_rank());
  charge_network(rt_->message_cost(src_world, world_rank(), size));
  return view;
}

bool Comm::Loan::settle() {
  LoanState& s = *state_;
  rt_->mailbox(lender_world_).await([&] {
    int phase = s.phase.load(std::memory_order_acquire);
    if (phase == LoanState::kReleased) return true;
    if (!rt_->aborted_flag().load(std::memory_order_acquire)) return false;
    // Aborted: a loan nobody has borrowed is revoked, so a late borrow
    // throws instead of reading; a borrowed one is waited out, as its
    // borrower stops at its next read.
    phase = LoanState::kLent;
    return s.phase.compare_exchange_strong(phase, LoanState::kRevoked,
                                           std::memory_order_acq_rel) ||
           phase == LoanState::kReleased;
  });
  const bool released = s.phase.load(std::memory_order_acquire) == LoanState::kReleased;
  state_.reset();
  return released;
}

void Comm::Loan::wait() {
  if (state_ == nullptr) throw std::logic_error("Loan::wait: the loan was moved or settled");
  if (!settle()) throw JobAborted("loan revoked by job abort");
}

Comm::Loan::~Loan() {
  if (state_ == nullptr ||
      state_->phase.load(std::memory_order_acquire) == LoanState::kReleased) {
    return;
  }
  // The lender leaves with its bytes still lent — it is unwinding — and
  // they may be freed right after this frame. Abort the job so every
  // borrower stops at its next read, and settle before returning. The
  // reason is provisional: the failure the lender is unwinding from
  // names the abort once it reaches the runtime.
  rt_->abort("rank " + std::to_string(lender_world_) + " unwound with bytes on loan",
             /*provisional=*/true);
  settle();
}

std::span<const std::byte> Comm::Borrowed::read(std::size_t offset, std::size_t len) const {
  if (rt_->aborted_flag().load(std::memory_order_acquire)) {
    throw JobAborted("borrowed read interrupted by job abort");
  }
  if (offset > size() || len > size() - offset) {
    throw std::out_of_range("Borrowed::read: range outside the loan");
  }
  return state_->bytes.subspan(offset, len);
}

Comm::Borrowed::~Borrowed() {
  if (state_ == nullptr) return;
  state_->phase.store(LoanState::kReleased, std::memory_order_release);
  rt_->mailbox(lender_world_).interrupt();
}

void Comm::barrier() {
  static telemetry::Counter& calls = telemetry::metrics().counter("mpi.coll.barriers");
  calls.increment();
  const Tag seq = next_seq();
  const int n = size();
  const std::byte token{0};
  for (int mask = 1, round = 0; mask < n; mask <<= 1, ++round) {
    const int dst = (rank_ + mask) % n;
    const int src = (rank_ - mask + n) % n;
    send_bytes(dst, collective_tag(seq, round), std::span<const std::byte>(&token, 1));
    std::byte in{};
    recv_bytes(src, collective_tag(seq, round), std::span<std::byte>(&in, 1));
  }
}

void Comm::bcast_bytes(int root, std::span<std::byte> data) {
  if (root < 0 || root >= size()) throw std::invalid_argument("bcast: bad root");
  static telemetry::Histogram& h_bytes =
      telemetry::metrics().histogram("mpi.coll.bcast_bytes", 1.0);
  h_bytes.record(static_cast<double>(data.size()));
  const Tag seq = next_seq();
  const int n = size();
  const int relr = relative_rank(root);
  // MPICH-style binomial tree: receive from the parent (relative rank with
  // the lowest set bit cleared), then fan out to children.
  int mask = 1;
  while (mask < n) {
    if (relr & mask) {
      recv_bytes(absolute_rank(relr - mask, root), collective_tag(seq, 0), data);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (relr + mask < n) {
      send_bytes(absolute_rank(relr + mask, root), collective_tag(seq, 0), data);
    }
    mask >>= 1;
  }
}

Comm Comm::split(int color, int key) {
  if (color < 0) throw std::invalid_argument("split: color must be >= 0");
  struct Entry {
    int color;
    int key;
    int member;  // rank in parent comm
  };
  const Entry mine{color, key, rank_};
  const std::vector<Entry> all = allgather<Entry>(std::span<const Entry>(&mine, 1));

  std::vector<Entry> same_color;
  for (const Entry& e : all) {
    if (e.color == color) same_color.push_back(e);
  }
  std::sort(same_color.begin(), same_color.end(), [](const Entry& a, const Entry& b) {
    return std::tie(a.key, a.member) < std::tie(b.key, b.member);
  });

  auto group = std::make_shared<Group>();
  group->id = util::splitmix64(util::splitmix64(group_->id + 0x9e3779b97f4a7c15ULL *
                                                                 static_cast<std::uint64_t>(
                                                                     collective_seq_)) ^
                               static_cast<std::uint64_t>(color + 1));
  int my_new_rank = -1;
  group->members.reserve(same_color.size());
  for (std::size_t i = 0; i < same_color.size(); ++i) {
    group->members.push_back(translate(same_color[i].member));
    if (same_color[i].member == rank_) my_new_rank = static_cast<int>(i);
  }
  return Comm(*rt_, std::move(group), my_new_rank);
}

Comm Comm::dup() {
  auto group = std::make_shared<Group>();
  // Derived purely from (parent id, per-handle dup ordinal): every member
  // computes the same id without communication, and successive dups of the
  // same parent get distinct ids.
  group->id = util::splitmix64(
      util::splitmix64(group_->id ^ 0xd5b4'7c3a'9e11'f06bULL) +
      static_cast<std::uint64_t>(dup_count_));
  ++dup_count_;
  group->members = group_->members;
  return Comm(*rt_, std::move(group), rank_);
}

void Comm::failpoint(std::string_view name) {
  rt_->check_alive(world_rank());
  // Failpoints double as the heartbeat sites of the health monitor: every
  // rank passes one at least once per iteration and per protocol step, and
  // check_alive above guarantees a dead rank never beats again.
  telemetry::health().heartbeat(world_rank());
  sim::FailureInjector* injector = rt_->injector();
  if (injector == nullptr) return;
  const std::optional<sim::KillOrder> order = injector->should_kill(name, world_rank());
  if (!order.has_value()) return;
  // Mark the kill on the triggering rank's trace row before it unwinds, so
  // the exported timeline shows which protocol step the failure landed in.
  telemetry::instant("fail:" + std::string(name));
  // Resolve the victim set to node ids, expanding a whole-rack order to
  // every primary node sharing a rack with a named victim — all of them
  // die in this one instant (the correlated-failure model).
  std::vector<int> node_ids;
  for (const int v : order->victim_world_ranks) {
    node_ids.push_back(rt_->node_id_of(v < 0 ? world_rank() : v));
  }
  if (order->whole_rack) {
    sim::Cluster& cluster = rt_->cluster();
    std::vector<int> racks;
    for (const int id : node_ids) racks.push_back(cluster.node(id).rack());
    for (const int id : cluster.primary_nodes()) {
      const int rack = cluster.node(id).rack();
      if (std::find(racks.begin(), racks.end(), rack) != racks.end()) {
        node_ids.push_back(id);
      }
    }
  }
  std::sort(node_ids.begin(), node_ids.end());
  node_ids.erase(std::unique(node_ids.begin(), node_ids.end()), node_ids.end());
  for (const int id : node_ids) {
    rt_->cluster().power_off(id, "failpoint '" + std::string(name) +
                                     "' (triggered by rank " +
                                     std::to_string(world_rank()) + ")");
  }
  // Either way the job is aborting; unwind this rank immediately so its
  // state is frozen exactly at the failpoint.
  throw JobAborted("killed/triggered at failpoint '" + std::string(name) + "'");
}

}  // namespace skt::mpi
