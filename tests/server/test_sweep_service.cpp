// SweepService guarantees: bit-identity to the serial/batch NDF paths at
// any (worker count x universe size), one netlist clone per worker on SPICE
// universes (pinned through the Netlist::clone_count() probe), in-order
// streaming, mid-job cancellation, golden-cache reuse across jobs, and a
// service pipeline that jobs never write.

#include "server/sweep_service.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "capture/fault_injection.h"
#include "core/batch_ndf.h"
#include "core/golden_cache.h"
#include "core/paper_setup.h"
#include "filter/cut.h"
#include "support/server_helpers.h"

namespace xysig::server {
namespace {

std::vector<double> grid(double from, double to, std::size_t count) {
    std::vector<double> out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        out.push_back(from + (to - from) * static_cast<double>(i) /
                                 static_cast<double>(count - 1));
    return out;
}

TEST(SweepService, DeviationJobBitIdenticalToBatchAtAnyShardAndWorkerCount) {
    // A (worker count x universe size) matrix whose derived shard sizes
    // span 1 to 64 members, up to a 1200-member universe: the acceptance
    // gate of the sharded service.
    const filter::Biquad nominal = core::paper_biquad();
    std::set<std::size_t> shard_sizes;
    for (const std::size_t size : {13u, 200u, 1200u}) {
        const std::vector<double> deviations = grid(-20.0, 20.0, size);
        core::SignaturePipeline reference_pipe = make_pipeline();
        reference_pipe.set_golden(filter::BehaviouralCut(nominal));
        const core::BatchNdfEvaluator batch(reference_pipe, {.threads = 2});
        const std::vector<double> reference =
            batch.evaluate_deviations(nominal, deviations);

        for (const unsigned workers : {1u, 2u, 4u, 8u}) {
            SweepService service(make_pipeline(), {.workers = workers});
            const SweepJob job = SweepJob::deviation_grid(nominal, deviations);

            std::vector<double> streamed;
            std::vector<std::size_t> order;
            const JobSummary summary = service.run(job, [&](const SweepResult& r) {
                order.push_back(r.member_id);
                streamed.push_back(r.ndf);
            });

            const std::size_t shard = work_unit_size(size, workers);
            shard_sizes.insert(shard);
            ASSERT_EQ(streamed.size(), reference.size())
                << "size " << size << " workers " << workers;
            for (std::size_t i = 0; i < reference.size(); ++i)
                ASSERT_TRUE(same_bits(streamed[i], reference[i]))
                    << "member " << i << " size " << size << " workers "
                    << workers;
            // In-order, gap-free streaming on an uncancelled job.
            for (std::size_t i = 0; i < order.size(); ++i)
                ASSERT_EQ(order[i], i);
            EXPECT_FALSE(summary.cancelled);
            EXPECT_EQ(summary.members_done, deviations.size());
            EXPECT_EQ(summary.shards_total, (size + shard - 1) / shard);
            EXPECT_EQ(summary.shards_done, summary.shards_total);
            EXPECT_EQ(summary.netlist_clones, 0u); // behavioural: no SPICE clones
            EXPECT_EQ(summary.shard_timings.size(), summary.shards_total);
        }
    }
    EXPECT_EQ(*shard_sizes.begin(), 1u);
    EXPECT_EQ(*shard_sizes.rbegin(), 64u);
}

TEST(SweepService, StreamsSignaturesAndLabels) {
    SweepService service(make_pipeline(), {.workers = 2});
    const SweepJob job = SweepJob::deviation_grid(
        core::paper_biquad(), {-10.0, 10.0}, core::SweptParameter::f0);
    std::vector<SweepResult> results;
    (void)service.run(job,
                      [&](const SweepResult& r) { results.push_back(r); });
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].label, "dev(f0,-10%)");
    EXPECT_EQ(results[1].label, "dev(f0,10%)");
    for (const SweepResult& r : results) {
        ASSERT_TRUE(r.signature.has_value());
        EXPECT_GE(r.signature->zone_visits(), 2u);
        EXPECT_TRUE(std::isfinite(r.ndf));
        EXPECT_GT(r.ndf, 0.0); // +/-10% f0 is detectable (paper Fig. 8)
    }
}

TEST(SweepService, ExplicitCutListMatchesBatchEvaluate) {
    const filter::Biquad nominal = core::paper_biquad();
    std::vector<filter::BehaviouralCut> cuts;
    for (const double dev : grid(-15.0, 15.0, 64))
        cuts.emplace_back(nominal.with_q_shift(dev / 100.0));
    std::vector<const filter::Cut*> raw;
    for (const auto& c : cuts)
        raw.push_back(&c);
    const filter::BehaviouralCut golden(nominal);

    core::SignaturePipeline reference_pipe = make_pipeline();
    reference_pipe.set_golden(golden);
    const core::BatchNdfEvaluator batch(reference_pipe, {.threads = 2});
    const std::vector<double> reference = batch.evaluate(raw);

    SweepService service(make_pipeline(), {.workers = 3});
    const SweepJob job(std::make_shared<core::CutListUniverse>(raw, &golden));
    std::vector<double> streamed;
    (void)service.run(job,
                      [&](const SweepResult& r) { streamed.push_back(r.ndf); });
    ASSERT_EQ(streamed.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i)
        EXPECT_TRUE(same_bits(streamed[i], reference[i])) << "member " << i;
}

TEST(SweepService, SpiceUniverseOneClonePerWorkerAndBitIdenticalToBatch) {
    const auto circuit = core::paper_tow_thomas();
    const core::SpiceObservation obs{circuit.input_source, circuit.input_node,
                                     circuit.lp_node, /*settle_periods=*/2};
    capture::FaultUniverseOptions fopts;
    auto faults = capture::enumerate_bridging_faults(circuit.netlist, fopts);
    const auto opens = capture::enumerate_open_faults(circuit.netlist, fopts);
    faults.insert(faults.end(), opens.begin(), opens.end());
    ASSERT_EQ(faults.size(), 29u); // the wire's default universe

    // Reference: the clone-per-fault universe (one fault-injected deep
    // clone PER FAULT), evaluated serially outside the executor.
    core::SignaturePipeline reference_pipe = make_pipeline();
    reference_pipe.set_golden(filter::SpiceCut(
        std::make_unique<spice::Netlist>(circuit.netlist.clone()),
        obs.input_source, obs.x_node, obs.y_node, obs.settle_periods));
    std::vector<double> reference;
    for (const auto& cut : core::BatchNdfEvaluator::build_fault_universe(
             circuit.netlist, faults, obs)) {
        try {
            reference.push_back(reference_pipe.ndf_of(*cut));
        } catch (const NumericError&) {
            reference.push_back(std::numeric_limits<double>::quiet_NaN());
        }
    }

    constexpr unsigned kWorkers = 4;
    SweepService service(make_pipeline(), {.workers = kWorkers});
    const SweepJob job = SweepJob::fault_universe(
        std::make_shared<spice::Netlist>(circuit.netlist.clone()), faults, obs);

    const std::uint64_t clones_before = spice::Netlist::clone_count();
    std::vector<double> streamed;
    bool any_nan = false;
    const JobSummary summary = service.run(job, [&](const SweepResult& r) {
        streamed.push_back(r.ndf);
        if (std::isnan(r.ndf)) {
            any_nan = true;
            EXPECT_FALSE(r.signature.has_value());
        } else {
            EXPECT_TRUE(r.signature.has_value());
        }
    });
    const std::uint64_t clones_during =
        spice::Netlist::clone_count() - clones_before;

    // One clone per participating worker — never one per fault — plus
    // exactly one for the job's golden CUT.
    EXPECT_EQ(summary.netlist_clones, clones_during - 1);
    EXPECT_GE(summary.netlist_clones, 1u);
    EXPECT_LE(summary.netlist_clones, kWorkers);
    EXPECT_LT(clones_during, faults.size()); // the clone-per-fault smell test
    // A universe of a few dozen members is spread one member per shard
    // over the pool, not run as one shard on the calling thread.
    EXPECT_EQ(summary.shards_total, faults.size());
    std::set<unsigned> slots;
    for (const ShardTiming& t : summary.shard_timings)
        slots.insert(t.worker);
    EXPECT_GE(slots.size(), 2u);

    // Bit identity against the clone-per-fault reference, NaNs included.
    ASSERT_EQ(streamed.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i)
        ASSERT_TRUE(same_bits(streamed[i], reference[i]))
            << "fault " << faults[i].description();
    EXPECT_TRUE(any_nan); // the universe contains unsolvable members
}

TEST(SweepService, CancellationMidJobStopsDispatchKeepsOrder) {
    SweepService service(make_pipeline(), {.workers = 4});
    // Large enough that the workers cannot plausibly drain the whole
    // universe before the callback has delivered (and cancelled at) 20
    // results on the caller thread.
    const SweepJob job =
        SweepJob::deviation_grid(core::paper_biquad(), grid(-20.0, 20.0, 2000));

    SweepCancelToken cancel;
    std::vector<std::size_t> order;
    const JobSummary summary = service.run(
        job,
        [&](const SweepResult& r) {
            order.push_back(r.member_id);
            if (order.size() == 20)
                cancel.cancel();
        },
        &cancel);

    EXPECT_TRUE(summary.cancelled);
    EXPECT_GE(order.size(), 20u);
    EXPECT_LT(order.size(), 2000u); // dispatch really stopped
    EXPECT_LT(summary.shards_done, summary.shards_total);
    // Every evaluated member is delivered, in ascending order (gaps allowed
    // after the cancellation point).
    EXPECT_EQ(order.size(), summary.members_done);
    for (std::size_t i = 1; i < order.size(); ++i)
        EXPECT_LT(order[i - 1], order[i]);
    // The contiguous prefix before cancellation is gap-free.
    for (std::size_t i = 0; i < 20; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(SweepService, GoldenComputedOncePerFingerprintAcrossJobs) {
    SweepService service(make_pipeline(), {.workers = 2});
    const SweepJob job =
        SweepJob::deviation_grid(core::paper_biquad(), grid(-5.0, 5.0, 32));
    auto& cache = core::GoldenSignatureCache::instance();

    (void)service.run(job, [](const SweepResult&) {});
    const std::size_t misses_after_first = cache.misses();
    const std::size_t hits_after_first = cache.hits();

    (void)service.run(job, [](const SweepResult&) {});
    (void)service.run(job, [](const SweepResult&) {});
    EXPECT_EQ(cache.misses(), misses_after_first); // no recomputation
    EXPECT_GE(cache.hits(), hits_after_first + 2); // one hit per repeat job

    const auto stats = service.stats();
    EXPECT_EQ(stats.jobs, 3u);
    EXPECT_EQ(stats.members, 3u * 32u);
}

TEST(SweepService, PipelineStaysReadOnlyAcrossJobs) {
    // Jobs evaluate against their own pipeline copy: neither a job's golden
    // nor its sampling mode is ever written into the service pipeline,
    // which another thread (a scheduler's prefetcher) reads concurrently.
    SweepService service(make_pipeline(), {.workers = 2});
    const bool construction_mode = service.pipeline().options().fast_math;
    SweepJob exact =
        SweepJob::deviation_grid(core::paper_biquad(), grid(-5.0, 5.0, 6));
    exact.fast_math = false;
    SweepJob fast = exact;
    fast.fast_math = true;

    (void)service.run(exact, [](const SweepResult&) {});
    (void)service.run(fast, [](const SweepResult&) {});
    EXPECT_FALSE(service.pipeline().has_golden());
    EXPECT_EQ(service.pipeline().options().fast_math, construction_mode);
}

TEST(SweepService, JobPipelinePinsTheModeAndInstallsTheGolden) {
    SweepService service(make_pipeline(), {.workers = 2});
    SweepJob fast =
        SweepJob::deviation_grid(core::paper_biquad(), grid(-5.0, 5.0, 6));
    fast.fast_math = true;
    std::vector<double> streamed;
    (void)service.run(fast,
                      [&](const SweepResult& r) { streamed.push_back(r.ndf); });
    ASSERT_EQ(streamed.size(), 6u);

    // The copy run() evaluated against: the job's mode and golden, so a
    // member evaluated on it reproduces the streamed bits.
    const core::SignaturePipeline pipe = service.job_pipeline(fast);
    EXPECT_TRUE(pipe.options().fast_math);
    ASSERT_TRUE(pipe.has_golden());
    const filter::BehaviouralCut member0(
        core::paper_biquad().with_f0_shift(-0.05));
    EXPECT_TRUE(same_bits(pipe.ndf_of(member0), streamed[0]));
    // Building it left the service pipeline untouched.
    EXPECT_FALSE(service.pipeline().has_golden());
    EXPECT_FALSE(service.pipeline().options().fast_math);
    EXPECT_THROW((void)service.job_pipeline(SweepJob{}), ContractError);
}

TEST(SweepService, WorkerFaultInjectionErrorPropagates) {
    const auto circuit = core::paper_tow_thomas();
    const core::SpiceObservation obs{circuit.input_source, circuit.input_node,
                                     circuit.lp_node, 2};
    capture::NetlistFault bogus;
    bogus.kind = capture::NetlistFault::Kind::bridging;
    bogus.node_a = "no_such_node";
    bogus.node_b = circuit.lp_node;
    bogus.value = 100.0;

    SweepService service(make_pipeline(), {.workers = 2});
    const SweepJob job = SweepJob::fault_universe(
        std::make_shared<spice::Netlist>(circuit.netlist.clone()), {bogus}, obs);
    EXPECT_THROW((void)service.run(job, [](const SweepResult&) {}),
                 InvalidInput);
}

TEST(SweepService, ThrowingResultCallbackStopsJobAndServiceSurvives) {
    SweepService service(make_pipeline(), {.workers = 4});
    const SweepJob job =
        SweepJob::deviation_grid(core::paper_biquad(), grid(-20.0, 20.0, 500));
    // A consumer that throws mid-stream: run() must stop the workers, wait
    // for them to release the job context, and rethrow — not crash.
    EXPECT_THROW(
        (void)service.run(job,
                          [](const SweepResult& r) {
                              if (r.member_id == 3)
                                  throw std::runtime_error("consumer failed");
                          }),
        std::runtime_error);
    // The pool is intact: the next job runs normally.
    std::size_t delivered = 0;
    (void)service.run(
        SweepJob::deviation_grid(core::paper_biquad(), {-5.0, 5.0}),
        [&](const SweepResult&) { ++delivered; });
    EXPECT_EQ(delivered, 2u);
}

TEST(SweepService, DefaultConstructedJobIsRejected) {
    // A default job has no universe: size 0, and run() refuses it instead of
    // reporting an empty summary.
    SweepService service(make_pipeline(), {.workers = 2});
    const SweepJob job;
    EXPECT_EQ(job.size(), 0u);
    std::size_t calls = 0;
    EXPECT_THROW((void)service.run(job, [&](const SweepResult&) { ++calls; }),
                 ContractError);
    EXPECT_EQ(calls, 0u);
    EXPECT_EQ(service.stats().jobs, 0u);
}

TEST(SweepService, EmptyJobCompletesImmediately) {
    SweepService service(make_pipeline(), {.workers = 2});
    const SweepJob job = SweepJob::deviation_grid(core::paper_biquad(), {});
    std::size_t calls = 0;
    const JobSummary summary =
        service.run(job, [&](const SweepResult&) { ++calls; });
    EXPECT_EQ(calls, 0u);
    EXPECT_EQ(summary.members_total, 0u);
    EXPECT_EQ(summary.shards_total, 0u);
    EXPECT_FALSE(summary.cancelled);
}

} // namespace
} // namespace xysig::server
