#include "net/dispatch.hpp"

#include <exception>
#include <vector>

namespace softcell::net {

namespace {

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ull;
  }
  return h;
}

}  // namespace

std::uint64_t classifier_digest(
    std::span<const PacketClassifier> classifiers) {
  // Per-entry FNV-1a hashes summed with wrap-around: insensitive to
  // enumeration order, sensitive to every field of every entry.
  std::uint64_t sum = 0;
  for (const PacketClassifier& c : classifiers) {
    std::uint64_t h = 0xCBF29CE484222325ull;
    h = fnv1a(h, static_cast<std::uint64_t>(c.app));
    h = fnv1a(h, c.clause.value());
    h = fnv1a(h, c.allow ? 1 : 0);
    h = fnv1a(h, c.tag ? c.tag->value() : 0xFFFFull);
    sum += h;
  }
  return sum;
}

ofp::PacketInReply BrainDispatcher::dispatch(const ofp::PacketInMsg& msg) {
  ofp::PacketInReply reply;
  reply.xid = msg.xid;
  reply.kind = msg.kind;
  try {
    if (msg.kind == ofp::PacketInMsg::Kind::kPolicyPath) {
      reply.tag = brain_.request_policy_path(msg.ue, msg.bs, msg.clause);
    } else {
      const std::vector<PacketClassifier> classifiers =
          brain_.fetch_classifiers(msg.ue, msg.bs);
      reply.classifier_count = static_cast<std::uint32_t>(classifiers.size());
      reply.digest = classifier_digest(classifiers);
    }
  } catch (const std::exception&) {
    reply.ok = false;
  }
  return reply;
}

}  // namespace softcell::net
