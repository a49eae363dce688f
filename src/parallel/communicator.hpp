// Rank-to-rank message passing over in-process channels.
//
// Mimics the MPI subset the distributed solver needs: tagged
// point-to-point send/recv (non-blocking send, blocking receive, ordered
// per sender-receiver pair) and a vector all-reduce. A rank may send to
// itself — on the solver's R x 1 slab mesh both y faces do, and at one
// rank all 8 halo messages do — through its own FIFO channel. See
// channel.hpp for why this exists.
#pragma once

#include <memory>
#include <vector>

#include "common/types.hpp"
#include "common/vec3.hpp"
#include "parallel/channel.hpp"

namespace lbmib {

/// A tagged payload of Reals.
struct Message {
  int tag = 0;
  std::vector<Real> data;
};

class Communicator {
 public:
  explicit Communicator(int num_ranks);

  int num_ranks() const { return num_ranks_; }

  /// Enqueue `message` from rank `from` to rank `to`. Never blocks.
  void send(int from, int to, Message message);

  /// Blocking receive at rank `at` of the next message from rank `from`.
  /// The received tag must equal `expected_tag` (messages between a pair
  /// arrive in send order; a mismatch indicates a protocol bug and
  /// throws).
  Message recv(int at, int from, int expected_tag);

  /// Element-wise sum of `partial` across all ranks; every rank receives
  /// the same total (gather to rank 0, reduce in rank order — so the
  /// result is deterministic — then broadcast). Collective: every rank
  /// must call it with the same vector length and `tag`.
  std::vector<Real> allreduce_sum(int rank, std::vector<Real> partial,
                                  int tag);

 private:
  Channel<Message>& channel(int from, int to) {
    return *channels_[static_cast<Size>(from) *
                          static_cast<Size>(num_ranks_) +
                      static_cast<Size>(to)];
  }

  int num_ranks_;
  std::vector<std::unique_ptr<Channel<Message>>> channels_;
};

}  // namespace lbmib
