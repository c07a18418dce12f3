// Load generator against an in-process rapteed over loopback. A healthy
// daemon answers every request, so every run must report zero errors;
// that includes the request each connection still has in flight when the
// measurement window closes, which gets its own reply budget and is
// drained rather than cut off at the window edge.
#include <gtest/gtest.h>

#include <chrono>

#include "net/load_gen.hpp"
#include "net/service.hpp"

namespace raptee::net {
namespace {

using namespace std::chrono_literals;

TEST(LoadGen, HealthyDaemonReportsNoErrors) {
  DaemonConfig dc;
  dc.population = 32;
  dc.view_size = 16;
  dc.seed = 5;
  ServiceDaemon daemon(dc);

  LoadConfig lc;
  lc.port = daemon.start();
  lc.connections = 4;
  lc.duration = 200ms;
  lc.nonce_seed = 7;
  // Several short windows: each one closes with requests in flight.
  for (int pass = 0; pass < 5; ++pass) {
    const LoadReport report = run_load(lc);
    EXPECT_GT(report.requests, 0u) << "pass " << pass;
    EXPECT_GT(report.samples_received, 0u) << "pass " << pass;
    EXPECT_EQ(report.errors, 0u) << "pass " << pass;
  }
  daemon.stop();
}

}  // namespace
}  // namespace raptee::net
