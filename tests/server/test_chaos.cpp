// ChaosTransport guarantees: under every injected fault mode —
// disconnect, permanent stall, mid-JSON truncation, garbage injection,
// straggler delay — the fan-out driver's recovery machinery (re-dispatch
// from the first unreceived member, inactivity timeout, malformed-line
// peer death, work-stealing) still merges a stream bit-identical to the
// single-process reference, with a bounded number of dispatch attempts.
// The matrix runs every fault over both transports (in-process loopback
// and real sweep_server child processes) at 2 and 4 partitions.

#include "support/chaos.h"

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include <unistd.h>

#include "server/fanout.h"
#include "server/transport.h"
#include "server/wire.h"
#include "support/server_helpers.h"

namespace xysig::server {
namespace {

/// 48 members: big enough that every partition at 4-way still sees the
/// fault fire mid-stream, small enough for a matrix of 20 runs.
const char* kGridJob =
    R"({"job":"deviations","grid":{"from":-12,"to":12,"count":48}})";

/// Server binary for process rows: ctest runs in the build directory, so
/// the default relative path resolves; XYSIG_SWEEP_SERVER overrides (the
/// TSan CI job builds without examples and skips these rows).
[[nodiscard]] std::string server_binary() {
    const char* env = std::getenv("XYSIG_SWEEP_SERVER");
    return env != nullptr ? env : "./example_sweep_server";
}

[[nodiscard]] FanoutDriver::TransportFactory
process_factory(const std::string& binary) {
    const std::vector<std::string> argv = {
        binary, "--spp=" + std::to_string(kSpp), "--workers=2"};
    return [argv] { return std::make_unique<ProcessTransport>(argv); };
}

/// One matrix cell: run the grid job under `plan` with the first
/// transport poisoned, assert exact merge and bounded attempts.
void run_chaos_cell(const FanoutDriver::TransportFactory& base,
                    const char* transport_name, ChaosPlan plan,
                    unsigned partitions,
                    const std::vector<ExpectedMember>& reference) {
    SCOPED_TRACE(std::string(chaos_mode_name(plan.mode)) + " over " +
                 transport_name + " at " + std::to_string(partitions) +
                 " partitions");
    FanoutOptions opts;
    opts.partitions = partitions;
    // Tight enough that a permanent stall is detected fast, loose enough
    // that a loaded CI box never shoots a healthy peer (heartbeats are
    // not on here; the fault modes themselves provide the silence).
    opts.read_timeout_seconds = plan.mode == ChaosMode::stall ? 1.0 : 5.0;
    opts.max_attempts = 3;
    if (plan.mode == ChaosMode::delay)
        opts.steal_threshold = 4; // rescue the straggler instead of waiting

    FanoutDriver driver(chaos_factory(base, plan), opts);
    std::vector<FanoutRecord> merged;
    const FanoutSummary summary =
        driver.run(std::string(kGridJob), [&](const FanoutRecord& r) {
            merged.push_back(r);
        });

    ASSERT_EQ(merged.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
        EXPECT_EQ(merged[i].member, i);
        EXPECT_EQ(merged[i].ndf_hex, reference[i].ndf_hex) << "member " << i;
    }
    EXPECT_EQ(summary.members_done, reference.size());
    EXPECT_FALSE(summary.cancelled);

    unsigned total_attempts = 0;
    for (const PartitionOutcome& p : summary.partitions)
        total_attempts += p.attempts;
    if (plan.mode == ChaosMode::delay) {
        // Nothing dies in delay mode: attempts beyond one-per-segment
        // would mean the driver shot a slow-but-alive peer.
        EXPECT_EQ(summary.redispatches, 0u);
    } else {
        // Exactly one poisoned transport, so recovery costs at most a
        // couple of extra dispatches across the whole run.
        EXPECT_GE(summary.redispatches, 1u);
        EXPECT_LE(total_attempts, partitions + opts.max_attempts);
    }
}

class ChaosMatrix : public ::testing::TestWithParam<ChaosMode> {};

TEST_P(ChaosMatrix, LoopbackMergeStaysBitIdentical) {
    const auto reference = single_process_reference(kGridJob);
    ASSERT_EQ(reference.size(), 48u);
    for (const unsigned partitions : {2u, 4u}) {
        ChaosPlan plan;
        plan.mode = GetParam();
        plan.after_lines = 5;
        plan.stall_seconds = 0.0; // stall never recovers on its own
        plan.delay_seconds = 0.01;
        run_chaos_cell(loopback_factory(), "loopback", plan, partitions,
                       reference);
    }
}

TEST_P(ChaosMatrix, ProcessMergeStaysBitIdentical) {
    const std::string binary = server_binary();
    if (::access(binary.c_str(), X_OK) != 0)
        GTEST_SKIP() << "sweep_server binary not found at " << binary
                     << " (set XYSIG_SWEEP_SERVER)";
    const auto reference = single_process_reference(kGridJob);
    ASSERT_EQ(reference.size(), 48u);
    for (const unsigned partitions : {2u, 4u}) {
        ChaosPlan plan;
        plan.mode = GetParam();
        plan.after_lines = 5;
        plan.stall_seconds = 0.0;
        plan.delay_seconds = 0.01;
        run_chaos_cell(process_factory(binary), "process", plan, partitions,
                       reference);
    }
}

INSTANTIATE_TEST_SUITE_P(AllFaultModes, ChaosMatrix,
                         ::testing::Values(ChaosMode::disconnect,
                                           ChaosMode::stall,
                                           ChaosMode::truncate,
                                           ChaosMode::garbage,
                                           ChaosMode::delay),
                         // `param_info`, not `info`: the macro expansion has
                         // its own `info` in scope (-Wshadow under hardening).
                         [](const auto& param_info) {
                             return std::string(
                                 chaos_mode_name(param_info.param));
                         });

TEST(ChaosTransport, GarbageLineIsDeterministicForAFixedSeed) {
    // Two transports with the same plan corrupt identically — the whole
    // point of seeded chaos is reproducible failures.
    auto make = [] {
        LoopbackTransport::Options opts;
        opts.workers = 1;
        opts.samples_per_period = kSpp;
        return std::make_unique<LoopbackTransport>(opts);
    };
    ChaosPlan plan;
    plan.mode = ChaosMode::garbage;
    plan.after_lines = 0; // corrupt the very first line (the ready banner)
    plan.seed = 42;

    std::string first, second;
    {
        ChaosTransport t(make(), plan);
        ASSERT_EQ(t.read_line(first, 10.0), Transport::ReadStatus::line);
    }
    {
        ChaosTransport t(make(), plan);
        ASSERT_EQ(t.read_line(second, 10.0), Transport::ReadStatus::line);
    }
    EXPECT_EQ(first, second);
    EXPECT_THROW((void)JsonValue::parse(first), std::exception);
}

TEST(ChaosTransport, FaultyTransportBudgetLimitsInjection) {
    // chaos_factory(_, _, 1): only the first transport is poisoned; the
    // re-dispatch replacement (second invocation) must come up clean.
    ChaosPlan plan;
    plan.mode = ChaosMode::disconnect;
    plan.after_lines = 0;
    auto factory = chaos_factory(loopback_factory(), plan, 1);

    auto poisoned = factory();
    std::string line;
    EXPECT_EQ(poisoned->read_line(line, 10.0), Transport::ReadStatus::closed);

    auto clean = factory();
    ASSERT_EQ(clean->read_line(line, 10.0), Transport::ReadStatus::line);
    const JsonValue ready = JsonValue::parse(line);
    EXPECT_EQ(ready.string_or("event", ""), "ready");
}

} // namespace
} // namespace xysig::server
