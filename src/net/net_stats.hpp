// softcell::net -- counters for the socket serving layer.
//
// The wire-transport analogue of ofp's FaultStats: one plain struct of
// atomics the event loop increments, published into the telemetry
// Registry through the collector-hook pattern (the ControllerServer
// registers `contribute(sink, "net.")` so `net.*` shows up in Snapshot
// next to `ofp.*`).  Atomics because other threads (collectors, tests,
// the drain) read while the loop thread writes (relaxed is enough: these
// are statistics, not synchronization).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "telemetry/registry.hpp"

namespace softcell::net {

struct NetStats {
  std::atomic<std::uint64_t> accepts{0};         // connections accepted
  std::atomic<std::uint64_t> closes{0};          // connections closed
  std::atomic<std::int64_t> conns_open{0};       // currently open (gauge)
  std::atomic<std::uint64_t> bytes_in{0};
  std::atomic<std::uint64_t> bytes_out{0};
  std::atomic<std::uint64_t> frames_in{0};       // complete frames decoded
  std::atomic<std::uint64_t> packet_ins{0};      // packet-in frames routed
  std::atomic<std::uint64_t> replies_out{0};     // replies encoded to a conn
  std::atomic<std::uint64_t> reply_batches{0};   // read bursts flushed with
                                                 // at least one reply
  std::atomic<std::uint64_t> short_writes{0};    // send() accepted a prefix
  std::atomic<std::uint64_t> backpressure_drops{0};  // slow client: reply
                                                     // dropped, conn kept
  std::atomic<std::uint64_t> decode_errors{0};    // bad frame/framing
  std::atomic<std::uint64_t> overflow_closes{0};  // control-probe flood past
                                                  // the hard cap, conn closed
  std::atomic<std::uint64_t> accept_overflows{0};  // fd exhaustion: pending
                                                   // conn accepted and closed

  // Publishes the counters into a telemetry sink under `prefix` (the
  // FaultStats::contribute shape; see telemetry/registry.hpp).
  void contribute(telemetry::MetricSink& sink,
                  std::string_view prefix = "net.") const {
    const auto name = [&](std::string_view leaf) {
      std::string full(prefix);
      full.append(leaf);
      return full;
    };
    const auto load = [](const std::atomic<std::uint64_t>& v) {
      return v.load(std::memory_order_relaxed);
    };
    sink.counter(name("accepts"), load(accepts));
    sink.counter(name("closes"), load(closes));
    sink.gauge(name("conns_open"),
               conns_open.load(std::memory_order_relaxed));
    sink.counter(name("bytes_in"), load(bytes_in));
    sink.counter(name("bytes_out"), load(bytes_out));
    sink.counter(name("frames_in"), load(frames_in));
    sink.counter(name("packet_ins"), load(packet_ins));
    sink.counter(name("replies_out"), load(replies_out));
    sink.counter(name("reply_batches"), load(reply_batches));
    sink.counter(name("short_writes"), load(short_writes));
    sink.counter(name("backpressure_drops"), load(backpressure_drops));
    sink.counter(name("decode_errors"), load(decode_errors));
    sink.counter(name("overflow_closes"), load(overflow_closes));
    sink.counter(name("accept_overflows"), load(accept_overflows));
  }
};

}  // namespace softcell::net
