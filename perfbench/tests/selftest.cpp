// Self-test of the benchmark's own logic: the percentile rule, open-loop
// lateness/backlog accounting, the closed-loop generator against a live
// daemon, the metric set and the digest check.
//
//   cmake --build .bench_build --target perfbench_selftest && .bench_build/perfbench_selftest
//
// (perfbench/tests/test_perfbench.py builds and runs it.) Exits 0 when
// every check passes, 1 otherwise, naming each failed check.
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "digest.hpp"
#include "net/service.hpp"
#include "openloop.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace {

int g_failures = 0;
int g_checks = 0;

void check(bool ok, const char* what, int line) {
  ++g_checks;
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

template <typename Fn>
bool throws(Fn&& fn) {
  try {
    fn();
  } catch (const std::exception&) {
    return true;
  }
  return false;
}

using namespace perfbench;

void test_percentile_rule() {
  // p99 needs 10 samples beyond it: 1000 samples, not 999.
  CHECK(percentile_supported(1000, 99.0));
  CHECK(!percentile_supported(999, 99.0));
  // The median needs 20.
  CHECK(percentile_supported(20, 50.0));
  CHECK(!percentile_supported(19, 50.0));
  CHECK(percentile_supported(10'000, 99.9));
  CHECK(!percentile_supported(9'999, 99.9));
  CHECK(!percentile_supported(0, 50.0));

  std::vector<double> sorted;
  for (int i = 1; i <= 1000; ++i) sorted.push_back(i);
  const auto p99 = supported_percentile(sorted, 99.0);
  CHECK(p99.has_value() && std::fabs(*p99 - 990.01) < 1e-9);
  sorted.pop_back();
  CHECK(!supported_percentile(sorted, 99.0).has_value());
  CHECK(supported_percentile(sorted, 50.0).has_value());
  CHECK(median({3.0, 1.0, 2.0}) == 2.0);
}

void test_hist_percentile() {
  HistCapture h;
  h.bounds = {10, 20, 50};
  h.counts = {0, 10, 0, 0};  // all ten samples in (10, 20]
  CHECK(std::fabs(hist_percentile(h, 50.0) - 15.0) < 1e-9);
  CHECK(std::fabs(hist_percentile(h, 100.0) - 20.0) < 1e-9);
  h.counts = {0, 0, 0, 4};  // overflow bucket reports its lower edge
  CHECK(hist_percentile(h, 99.0) == 50.0);
  HistCapture before = h;
  before.counts = {0, 0, 0, 4};
  CHECK(hist_percentile(delta(h, before), 50.0) == 0.0);
}

void test_openloop_accounting() {
  OpenLoopTally t({0, 100, 200, 300, 400});
  // Request 0 sent on time, request 1 sent 50 ns late.
  t.sent(0, 0);
  t.sent(1, 150);
  t.sent(2, 200);
  CHECK(t.outstanding() == 3);
  CHECK(t.answered(0, 1000));
  CHECK(!t.answered(0, 1100));  // duplicate reply: not an outstanding tag
  CHECK(!t.answered(4, 1100));  // never sent
  CHECK(t.answered(1, 1150));
  // Request 2 times out; its late reply is not counted twice.
  CHECK(t.expire(5000, 1000) == 1);
  CHECK(!t.answered(2, 6000));
  t.sent(3, 300);
  t.close();  // request 3 never answered, request 4 never sent
  const OpenLoopTally::Report r = t.report();
  CHECK(r.attempted == 5);
  CHECK(r.inflight_max == 3);
  CHECK(r.completed == 2);
  CHECK(r.malformed == 0);
  CHECK(r.stray == 2);       // duplicate + never-sent replies fail no request
  CHECK(r.failed == 3);      // timeout + unanswered + unsent
  CHECK(r.failed <= r.attempted);

  // A short reply to an open request fails that request once: it does not
  // also time out, and a second reply to it is a stray.
  OpenLoopTally m({0, 100});
  m.sent(0, 0);
  m.sent(1, 100);
  m.rejected(0, 500);
  CHECK(!m.is_open(0));
  CHECK(m.expire(5000, 1000) == 1);  // only request 1
  m.rejected(0, 5100);
  CHECK(!m.answered(0, 5200));  // already failed: ignored, not a stray
  m.close();
  const OpenLoopTally::Report mr = m.report();
  CHECK(mr.malformed == 1);
  CHECK(mr.failed == 2);
  CHECK(mr.stray == 0);
  CHECK(mr.completed == 0);
  // Latency runs from the due time, so the late send is charged to it.
  CHECK(r.latency_us.size() == 2 && r.latency_us[0] == 1.0 && r.latency_us[1] == 1.05);
  // Lateness is send time minus due time.
  CHECK(r.lateness_us.size() == 4 && r.lateness_us.back() == 0.05);

  // Backlog: due-by-now minus answered.
  OpenLoopTally b({0, 10, 20, 30});
  b.sent(0, 0);
  b.sample_backlog(25);  // three due, none answered
  CHECK(b.answered(0, 26));
  b.sample_backlog(35);  // four due, one answered
  CHECK(b.report().backlog == (std::vector<std::uint64_t>{3, 3}));

  std::vector<std::uint64_t> flat(100, 5), growing;
  for (std::uint64_t i = 0; i < 100; ++i) growing.push_back(i * 10);
  CHECK(!backlog_growing(flat));
  CHECK(backlog_growing(growing));
  CHECK(!backlog_growing({}));
  // A single stall in the middle recovers: not a growing backlog.
  std::vector<std::uint64_t> stall(100, 3);
  stall[50] = 400;
  CHECK(!backlog_growing(stall));

  const auto a = poisson_schedule(10'000.0, 1'000'000'000, 7);
  const auto again = poisson_schedule(10'000.0, 1'000'000'000, 7);
  const auto other = poisson_schedule(10'000.0, 1'000'000'000, 8);
  CHECK(a == again);
  CHECK(a != other);
  CHECK(a.size() > 9'500 && a.size() < 10'500);
  bool ascending = true;
  for (std::size_t i = 1; i < a.size(); ++i) ascending = ascending && a[i - 1] <= a[i];
  CHECK(ascending && a.back() < 1'000'000'000);

  OpenLoopResult slo;
  slo.tally.latency_us.assign(1000, 100.0);
  slo.tally.attempted = 1000;
  slo.p99_us = 100.0;
  CHECK(slo.meets_slo());
  slo.p99_us = 1001.0;
  CHECK(!slo.meets_slo());
  slo.p99_us = 100.0;
  slo.tally.failed = 2;  // 0.2 % > 0.1 %
  CHECK(!slo.meets_slo());
  slo.tally.failed = 0;
  slo.tally.latency_us.resize(999);  // p99 no longer supported
  CHECK(!slo.meets_slo());
}

void test_closed_loop() {
  // Against a live daemon: every request sent is answered in full, and the
  // window's completions give a positive throughput.
  raptee::net::DaemonConfig dc;
  dc.population = 16;
  dc.view_size = 8;
  raptee::net::ServiceDaemon daemon(dc);
  ClosedLoopConfig c;
  c.port = daemon.start();
  c.connections = 2;
  c.depth = 4;
  c.window = std::chrono::milliseconds(200);
  const ClosedLoopResult r = run_closed_loop(c);
  daemon.stop();
  CHECK(r.attempted >= 8);
  CHECK(r.completed == r.attempted);
  CHECK(r.failed == 0 && r.stray == 0);
  CHECK(r.throughput_rps > 0.0);
}

void test_metric_set() {
  MetricSet m;
  m.add("latency_p50_ms", 1.5, "ms");
  CHECK(m.value("latency_p50_ms") == 1.5);
  CHECK(throws([&] { m.add("latency_p50_ms", 2.0, "ms"); }));
  CHECK(throws([&] { m.add("y", std::nan(""), "ms"); }));
  CHECK(m.json() == R"({"latency_p50_ms":{"value":1.5,"unit":"ms"}})");
}

std::string tiny_digest(std::uint64_t seed, bool decorate) {
  HonestPopulation population(200, 16, seed, decorate);
  for (int r = 0; r < 3; ++r) (void)population.step();
  return engine_digest(population.engine());
}

void test_digest_check() {
  const std::string recorded = tiny_digest(5, false);
  DigestTable table;
  table.set("tiny", 3, 0, recorded);
  // Same input: reproduced, also with every node decorated (tracing does
  // not perturb the simulation).
  CHECK(table.matches("tiny", 3, 0, tiny_digest(5, false)));
  CHECK(table.matches("tiny", 3, 0, tiny_digest(5, true)));
  // A perturbed seed changes the result bytes: the check fails.
  CHECK(!table.matches("tiny", 3, 0, tiny_digest(6, false)));
  // Unrecorded keys never match.
  CHECK(!table.matches("tiny", 4, 0, recorded));
  CHECK(!table.matches("tiny", 3, 1, recorded));

  const DigestTable parsed = DigestTable::parse(table.str());
  CHECK(parsed.matches("tiny", 3, 0, recorded));
  CHECK(throws([] { (void)DigestTable::parse("tiny 3 0 abc\n"); }));
  CHECK(throws([] { (void)DigestTable::parse("tiny three 0 " + std::string(64, 'a')); }));
  CHECK(throws([] { (void)DigestTable::load("/nonexistent/digests.txt"); }));

  CHECK(input_set_of(3) == 3 && input_set_of(kInputSets + 3) == 3);
  CHECK(sim_seed_of(0) != sim_seed_of(1));

  // The committed table covers every input set of the simulation.
  DigestTable committed;
  CHECK(!throws([&] { committed = DigestTable::load(PERFBENCH_DIGESTS); }));
  for (std::uint64_t set = 0; set < kInputSets; ++set) {
    CHECK(committed.find("raptee_sealed_wan", kSealedRounds, set).has_value());
  }
}

}  // namespace

int main() {
  test_percentile_rule();
  test_hist_percentile();
  test_openloop_accounting();
  test_closed_loop();
  test_metric_set();
  test_digest_check();
  std::printf("perfbench selftest: %d checks, %d failed\n", g_checks, g_failures);
  return g_failures == 0 ? 0 : 1;
}
