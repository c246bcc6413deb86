// softcell::net -- the request-dispatch boundary shared by both serving
// paths.
//
// The osrm-backend split (EngineInterface behind plugins): transports
// decode packet-ins however they arrive -- a socket in softcell-serverd, a
// plain function call in the in-process reference run -- and hand the
// decoded message to one Dispatcher, which answers it on the calling
// thread.  Because both paths cross the same boundary into the same brain
// calls, a wire run and an in-process run of the same workload land on the
// same controller state (the fingerprint-parity check in tests/test_net.cpp
// rests on this).
#pragma once

#include <cstdint>
#include <span>

#include "ctrl/control_plane.hpp"
#include "ofp/codec.hpp"
#include "runtime/shard_brain.hpp"

namespace softcell::net {

class Dispatcher {
 public:
  virtual ~Dispatcher() = default;

  // Answers one packet-in on the calling thread (run to completion: the
  // server's event-loop thread decodes, dispatches, encodes and sends).
  virtual ofp::PacketInReply dispatch(const ofp::PacketInMsg& msg) = 0;

  // Interleaving-independent fingerprint of the controller state (the
  // canonical recompact-then-fingerprint; see runtime/shard_brain.hpp).
  // Callers quiesce first: the server answers a stats request only after
  // the client has collected every outstanding reply.
  [[nodiscard]] virtual std::uint64_t fingerprint() = 0;
};

// Order-insensitive digest of a classifier set (FNV-1a over each entry,
// summed): lets the load generator verify fetch results end to end without
// shipping the classifier list over the wire, while staying independent of
// the order the controller enumerates them in.
[[nodiscard]] std::uint64_t classifier_digest(
    std::span<const PacketClassifier> classifiers);

// The production Dispatcher: a path request is one request_policy_path
// call, a fetch one fetch_classifiers call digested into the reply; a call
// that throws is answered ok = false.
class BrainDispatcher final : public Dispatcher {
 public:
  explicit BrainDispatcher(ShardBrain& brain) : brain_(brain) {}

  ofp::PacketInReply dispatch(const ofp::PacketInMsg& msg) override;
  [[nodiscard]] std::uint64_t fingerprint() override {
    return brain_.canonical_fingerprint();
  }

 private:
  ShardBrain& brain_;
};

}  // namespace softcell::net
