// Zero-allocation steady state of BrahmsNode::end_round: once one round
// has warmed the per-thread scratch (the pulled-ID streams, the renewal
// buffers and the history-sample picks), a plain-Brahms honest node's
// end_round — the sampler feed, sample validation and renew_view —
// performs no heap allocation. Verified by counting every global operator
// new in this binary across the subject node's end_round calls, the same
// harness as sim_test_engine_zero_alloc.
//
// Allocation sites that remain in a node's round, outside end_round:
//   * answer_pull builds the PullReply's view vector: the reply message
//     owns its payload, which outlives the responder's call.
//   * process_pull_reply copies the reply's view into a PullRecord: the
//     reply is gone by end of round, when the record is consumed.
//   * RapteeNode::process_pulled receives each untrusted answer's
//     survivors from sgx::Enclave::filter_pulled as a fresh vector: the
//     enclave boundary returns by value. Trusted nodes are not covered by
//     this gate.
//
// The counting overrides forward to std::malloc/std::free, which keeps the
// sanitizer jobs honest: ASan still intercepts the underlying malloc.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "brahms/node.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  ++g_allocations;
  // aligned_alloc requires size to be a multiple of the alignment.
  const auto alignment = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded ? rounded : alignment)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }

namespace raptee::brahms {
namespace {

constexpr std::uint32_t kPopulation = 60;
constexpr std::size_t kViewSize = 40;

/// The paper's l1 = l2 = 40, with sample validation every round against a
/// probe that declares every fifth ID dead, so validation re-draws seeds.
BrahmsConfig config() {
  BrahmsConfig c;
  c.params.l1 = kViewSize;
  c.params.l2 = kViewSize;
  c.sampler_validation_period = 1;
  return c;
}

std::vector<std::unique_ptr<BrahmsNode>> make_population() {
  std::vector<std::unique_ptr<BrahmsNode>> nodes;
  Rng peers(7);
  for (std::uint32_t i = 0; i < kPopulation; ++i) {
    crypto::Drbg kg(100 + i);
    auto auth = std::make_unique<KeyedAuthenticator>(AuthMode::kFingerprint,
                                                     kg.generate_key(), kg.fork("a"));
    nodes.push_back(std::make_unique<BrahmsNode>(
        NodeId{i}, config(), std::move(auth), Rng(1000 + i),
        [](NodeId id) { return id.value % 5 != 4; }));
    std::vector<NodeId> initial;
    for (std::uint32_t k = 0; k < kPopulation; ++k) initial.emplace_back(k);
    peers.shuffle(initial);
    nodes.back()->bootstrap(initial);  // a full view of l1 random peers
  }
  return nodes;
}

/// One round driven through the INode surface. Node 0 is the subject: it
/// receives exactly α·l1 pushes from distinct peers, so its view renewal is
/// never blocked, and its pulls return full views. Returns the heap
/// allocations made inside the subject's end_round.
std::uint64_t run_round(std::vector<std::unique_ptr<BrahmsNode>>& nodes, Round r) {
  for (auto& node : nodes) node->begin_round(r);

  for (std::uint32_t i = 1; i < kPopulation; ++i) {
    for (NodeId target : nodes[i]->push_targets()) {
      if (target.value != 0) nodes[target.value]->on_push(nodes[i]->make_push());
    }
  }
  const std::size_t subject_pushes = nodes[0]->params().push_slice();
  for (std::size_t k = 0; k < subject_pushes; ++k) {
    nodes[0]->on_push(nodes[1 + (r + k) % (kPopulation - 1)]->make_push());
  }

  for (auto& initiator : nodes) {
    for (NodeId target : initiator->pull_targets()) {
      BrahmsNode& responder = *nodes[target.value];
      const auto request = initiator->open_pull(responder.id());
      const auto reply = responder.answer_pull(request);
      const auto confirm = initiator->process_pull_reply(reply);
      (void)responder.process_confirm(confirm);
    }
  }

  const std::uint64_t before = g_allocations.load();
  nodes[0]->end_round(r);
  const std::uint64_t subject = g_allocations.load() - before;
  for (std::uint32_t i = 1; i < kPopulation; ++i) nodes[i]->end_round(r);
  return subject;
}

TEST(NodeZeroAlloc, HonestEndRoundIsAllocationFreeAfterOneRound) {
  auto nodes = make_population();
  (void)run_round(nodes, 1);  // warm-up: sizes the per-thread scratch

  for (Round r = 2; r <= 12; ++r) {
    const std::uint64_t allocations = run_round(nodes, r);
    const RoundTelemetry& t = nodes[0]->telemetry();
    ASSERT_FALSE(t.update_blocked) << "round " << r << " skipped renew_view";
    ASSERT_EQ(t.pulled_ids_total, nodes[0]->params().pull_slice() * kViewSize);
    EXPECT_EQ(allocations, 0u) << "round " << r;
  }
  EXPECT_EQ(nodes[0]->view().size(), kViewSize);
}

TEST(NodeZeroAlloc, CountersSeeOrdinaryAllocations) {
  // Sanity-check the instrument itself: a fresh vector growth must count.
  const std::uint64_t before = g_allocations.load();
  std::vector<std::uint8_t>* v = new std::vector<std::uint8_t>(1024);
  delete v;
  EXPECT_GT(g_allocations.load(), before);
}

}  // namespace
}  // namespace raptee::brahms
