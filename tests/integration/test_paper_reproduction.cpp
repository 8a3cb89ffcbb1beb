// Integration tests asserting the paper's published anchors end to end:
// the stimulus and biquad calibration anchors core/paper_setup.h lists,
// the Fig. 6 zone count, the Fig. 8 sweep shape and the Section IV-C noise
// claim.

#include <cmath>

#include <gtest/gtest.h>

#include "core/decision.h"
#include "core/detectability.h"
#include "core/ndf.h"
#include "core/paper_setup.h"
#include "core/sweep.h"
#include "filter/tow_thomas.h"
#include "monitor/table1.h"
#include "monitor/zone_map.h"

namespace xysig {
namespace {

TEST(PaperReproduction, LissajousPeriodIs200us) {
    EXPECT_NEAR(core::paper_stimulus().period(), 200e-6, 1e-12);
}

TEST(PaperReproduction, Fig6SixteenGrayCodedZones) {
    const monitor::MonitorBank bank = monitor::build_table1_bank();
    const monitor::ZoneMap zm(bank, 256);
    EXPECT_EQ(zm.zone_count(), 16u);
    EXPECT_LT(zm.gray_violation_fraction(), 0.02);
}

TEST(PaperReproduction, Fig7NdfAnchorAndHammingPeak) {
    core::PipelineOptions opts;
    opts.samples_per_period = 8192;
    core::SignaturePipeline pipe(monitor::build_table1_bank(),
                                 core::paper_stimulus(), opts);
    pipe.set_golden(filter::BehaviouralCut(core::paper_biquad()));

    const filter::BehaviouralCut defective(
        core::paper_biquad().with_f0_shift(0.10));
    const auto observed = pipe.chronogram(defective);
    const double v = core::ndf(observed, pipe.golden());
    // Paper: NDF = 0.1021.
    EXPECT_NEAR(v, 0.1021, 0.035);

    // Paper: the Hamming chronogram is mostly 0/1 with a short excursion
    // to 2 (the 111110-for-011110/011100/111100 episode).
    const auto profile = core::hamming_profile(observed, pipe.golden());
    unsigned max_d = 0;
    for (const auto& seg : profile)
        max_d = std::max(max_d, seg.distance);
    EXPECT_GE(max_d, 1u);
    EXPECT_LE(max_d, 3u);
}

TEST(PaperReproduction, Fig8LinearSymmetricSweep) {
    core::PipelineOptions opts;
    opts.samples_per_period = 4096;
    core::SignaturePipeline pipe(monitor::build_table1_bank(),
                                 core::paper_stimulus(), opts);
    std::vector<double> devs;
    for (int d = -20; d <= 20; d += 2)
        devs.push_back(d);
    const auto sweep = core::deviation_sweep(pipe, core::paper_biquad(), devs);
    const auto shape = core::analyse_sweep(sweep);
    EXPECT_GT(shape.r_squared, 0.97);        // "almost linearly"
    EXPECT_LT(shape.asymmetry, 0.10);        // "quite symmetrically"
    EXPECT_GT(shape.max_ndf, 0.12);          // Fig. 8 reaches ~0.19 at 20%
    EXPECT_LT(shape.max_ndf, 0.30);
}

TEST(PaperReproduction, NoiseClaimOnePercentDetectable) {
    core::PipelineOptions opts;
    opts.samples_per_period = 4096;
    core::SignaturePipeline pipe(monitor::build_table1_bank(),
                                 core::paper_stimulus(), opts);
    core::DetectabilityOptions dopts;
    dopts.trials = 12;
    dopts.periods_averaged = 16;
    dopts.noise_sigma = 0.005; // 3*sigma = 15 mV
    const std::vector<double> devs = {-1.0, 1.0};
    const auto study =
        core::noise_detectability(pipe, core::paper_biquad(), devs, dopts, 777);
    for (const auto& p : study.points)
        EXPECT_TRUE(p.detected) << p.deviation_percent << "%";
}

TEST(PaperReproduction, TowThomasCircuitGivesSameVerdictAsBehavioural) {
    // Run the full flow on the transistor-level... opamp-level Tow-Thomas
    // netlist with a +10% f0 defect injected into its capacitors and check
    // the NDF agrees with the behavioural prediction.
    core::PipelineOptions opts;
    opts.samples_per_period = 1024; // SPICE path is expensive
    core::SignaturePipeline pipe(monitor::build_table1_bank(),
                                 core::paper_stimulus(), opts);
    pipe.set_golden(filter::BehaviouralCut(core::paper_biquad()));

    filter::TowThomasCircuit ckt = core::paper_tow_thomas();
    ckt.inject_f0_shift(0.10);
    filter::SpiceCut spice_cut(ckt.netlist, ckt.input_source, ckt.input_node,
                               ckt.lp_node, 10);
    const double ndf_spice = pipe.ndf_of(spice_cut);

    const filter::BehaviouralCut fast(core::paper_biquad().with_f0_shift(0.10));
    const double ndf_fast = pipe.ndf_of(fast);

    EXPECT_NEAR(ndf_spice, ndf_fast, 0.02);
    EXPECT_GT(ndf_spice, 0.05);
}

TEST(PaperReproduction, PassFailBandsWork) {
    core::PipelineOptions opts;
    opts.samples_per_period = 4096;
    core::SignaturePipeline pipe(monitor::build_table1_bank(),
                                 core::paper_stimulus(), opts);
    std::vector<double> devs;
    for (int d = -20; d <= 20; d += 5)
        devs.push_back(d);
    const auto sweep = core::deviation_sweep(pipe, core::paper_biquad(), devs);
    const auto thr = core::NdfThreshold::from_sweep(sweep, 10.0);
    // Fig. 8's dashed band: a 10% tolerance threshold sits near NDF ~ 0.1.
    EXPECT_GT(thr.threshold(), 0.05);
    EXPECT_LT(thr.threshold(), 0.15);
}

} // namespace
} // namespace xysig
