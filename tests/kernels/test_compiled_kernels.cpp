// Bit-identity of the compiled signature kernels against the virtual path:
// mos_id vs mos_evaluate().id, tone-table sampling vs per-sample
// Waveform::value, compiled zoning vs MonitorBank::code over randomized
// traces for every boundary type (linear, MOS, mixed banks; any other type
// is rejected), the
// fused encode_codes path vs encode_events, and the pipeline's scratch
// path (the only NDF path) vs its virtual observation path, chronogram(),
// event for event (noise-free, noisy and capture-quantised). The pair-group
// and x-lane rows pin the grouping, that bound lanes never change a code,
// and that lanes are read only for a bitwise-equal x in their own mode;
// the digest rows pin fast_math's codes to the values they had before
// grouping.

#include "kernels/compiled_monitor_bank.h"
#include "kernels/compiled_waveform.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "capture/chronogram.h"
#include "common/error.h"
#include "common/rng.h"
#include "core/batch_ndf.h"
#include "core/golden_cache.h"
#include "core/ndf.h"
#include "core/paper_setup.h"
#include "core/pipeline.h"
#include "filter/tow_thomas.h"
#include "monitor/table1.h"
#include "spice/mosfet.h"

namespace xysig {
namespace {

/// A boundary type the library does not define, so the compiler cannot
/// lower it: circle of radius r around (cx, cy), origin outside -> h < 0 at
/// the origin already.
class CircleBoundary final : public monitor::Boundary {
public:
    CircleBoundary(double cx, double cy, double r) : cx_(cx), cy_(cy), r_(r) {}
    [[nodiscard]] double h(double x, double y) const override {
        const double dx = x - cx_;
        const double dy = y - cy_;
        return r_ * r_ - (dx * dx + dy * dy);
    }
    [[nodiscard]] std::unique_ptr<monitor::Boundary> clone() const override {
        return std::make_unique<CircleBoundary>(*this);
    }

private:
    double cx_, cy_, r_;
};

/// Random trace wandering around the monitor window.
void random_trace(Rng& rng, std::size_t n, std::vector<double>& xs,
                  std::vector<double>& ys) {
    xs.resize(n);
    ys.resize(n);
    double x = 0.5;
    double y = 0.5;
    for (std::size_t i = 0; i < n; ++i) {
        x += rng.normal(0.0, 0.04);
        y += rng.normal(0.0, 0.04);
        x = std::min(1.2, std::max(-0.2, x));
        y = std::min(1.2, std::max(-0.2, y));
        xs[i] = x;
        ys[i] = y;
    }
}

void expect_codes_identical(const monitor::MonitorBank& bank,
                            const std::vector<double>& xs,
                            const std::vector<double>& ys) {
    const auto compiled = kernels::CompiledMonitorBank::compile(bank);
    ASSERT_EQ(compiled.size(), bank.size());
    std::vector<unsigned> codes;
    compiled.codes_into(xs, ys, codes);
    ASSERT_EQ(codes.size(), xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) {
        ASSERT_EQ(codes[i], bank.code(xs[i], ys[i]))
            << "sample " << i << " at (" << xs[i] << ", " << ys[i] << ")";
    }
}

TEST(MosId, BitIdenticalToMosEvaluateId) {
    for (const spice::MosModel model : {spice::MosModel::ekv, spice::MosModel::level1}) {
        for (const spice::MosType type : {spice::MosType::nmos, spice::MosType::pmos}) {
            spice::MosParams p;
            p.model = model;
            p.type = type;
            p.w = 1.8e-6;
            for (double vgs = -1.5; vgs <= 1.5; vgs += 0.03125) {
                for (double vds = -1.5; vds <= 1.5; vds += 0.03125) {
                    const double full = spice::mos_evaluate(p, vgs, vds).id;
                    const double id = spice::mos_id(p, vgs, vds);
                    // Exact bitwise equality, not a tolerance.
                    ASSERT_EQ(full, id) << "model " << static_cast<int>(model)
                                        << " type " << static_cast<int>(type)
                                        << " vgs " << vgs << " vds " << vds;
                }
            }
        }
    }
}

TEST(CompiledWaveform, MultitoneSamplesBitIdentical) {
    Rng rng(11u);
    for (int rep = 0; rep < 5; ++rep) {
        std::vector<Tone> tones;
        const int n_tones = 1 + rep % 4;
        for (int k = 0; k < n_tones; ++k)
            tones.push_back({rng.uniform(0.05, 0.4), 1000.0 * (k + 1),
                             rng.uniform(0.0, 6.28)});
        const MultitoneWaveform w(rng.uniform(0.2, 0.8), tones);
        const auto compiled = kernels::CompiledWaveform::compile(w);
        ASSERT_TRUE(compiled.has_value());

        const double t0 = rng.uniform(0.0, 1e-3);
        const double duration = w.period();
        const std::size_t n = 777;
        std::vector<double> kernel_buf;
        compiled->sample_into(t0, duration, n, kernel_buf);
        const double dt = duration / static_cast<double>(n);
        ASSERT_EQ(kernel_buf.size(), n);
        for (std::size_t i = 0; i < n; ++i) {
            const double t = t0 + static_cast<double>(i) * dt;
            ASSERT_EQ(kernel_buf[i], w.value(t)) << "sample " << i;
        }
    }
}

TEST(CompiledWaveform, SineAndDcBitIdentical) {
    const SineWaveform sine(0.4, 0.25, 5e3, 1.234);
    const DcWaveform dc(0.6125);
    for (const Waveform* w : {static_cast<const Waveform*>(&sine),
                              static_cast<const Waveform*>(&dc)}) {
        const auto compiled = kernels::CompiledWaveform::compile(*w);
        ASSERT_TRUE(compiled.has_value());
        std::vector<double> buf;
        compiled->sample_into(1e-5, 4e-4, 512, buf);
        for (std::size_t i = 0; i < buf.size(); ++i) {
            const double t = 1e-5 + static_cast<double>(i) * (4e-4 / 512.0);
            ASSERT_EQ(buf[i], w->value(t));
        }
    }
}

TEST(CompiledWaveform, NonClosedFormFallsBackToVirtualLoop) {
    const PwlWaveform pwl({{0.0, 0.0}, {1.0, 1.0}, {2.0, 0.5}});
    EXPECT_FALSE(kernels::CompiledWaveform::compile(pwl).has_value());
    // The SampledSignal entry point still samples it (virtual loop).
    std::vector<double> buf;
    SampledSignal::sample_waveform_into(pwl, 0.0, 2.0, 64, buf);
    for (std::size_t i = 0; i < buf.size(); ++i)
        ASSERT_EQ(buf[i], pwl.value(static_cast<double>(i) * (2.0 / 64.0)));
}

TEST(CompiledMonitorBank, Table1MosBankBitIdentical) {
    Rng rng(42u);
    std::vector<double> xs;
    std::vector<double> ys;
    random_trace(rng, 2048, xs, ys);
    const auto bank = monitor::build_table1_bank();
    const auto compiled = kernels::CompiledMonitorBank::compile(bank);
    // Table I shares its X/Y input devices across rows: the 12 dynamic
    // legs deduplicate to 6 unique currents per sample.
    EXPECT_EQ(compiled.unique_leg_count(), 6u);
    expect_codes_identical(bank, xs, ys);
}

TEST(CompiledMonitorBank, PerturbedMosMonitorsBitIdentical) {
    // Monte-Carlo-perturbed legs exercise the vt0_delta / kp_scale /
    // offset_current merge the compiler hoists.
    Rng rng(7u);
    monitor::MonitorBank bank;
    for (int row = 1; row <= 6; ++row)
        bank.add(std::make_unique<monitor::MosCurrentBoundary>(
            monitor::perturb_monitor(monitor::table1_config(row), rng)));
    std::vector<double> xs;
    std::vector<double> ys;
    random_trace(rng, 1024, xs, ys);
    expect_codes_identical(bank, xs, ys);
}

TEST(CompiledMonitorBank, LinearBankBitIdentical) {
    Rng rng(43u);
    std::vector<double> xs;
    std::vector<double> ys;
    random_trace(rng, 2048, xs, ys);
    const auto bank = monitor::build_linear_approximation_bank();
    expect_codes_identical(bank, xs, ys);
}

TEST(CompiledMonitorBank, LowersLinearAndMosMonitorsAndRejectsOtherTypes) {
    // A bank mixing the two boundary types the library defines zones bit
    // for bit like the virtual path; any other type is refused by name.
    Rng rng(44u);
    std::vector<double> xs;
    std::vector<double> ys;
    random_trace(rng, 2048, xs, ys);
    monitor::MonitorBank bank;
    bank.add(std::make_unique<monitor::LinearBoundary>(1.0, 1.0, -1.0));
    bank.add(std::make_unique<monitor::MosCurrentBoundary>(monitor::table1_config(3)));
    bank.add(std::make_unique<monitor::LinearBoundary>(-1.0, 2.0, -0.4));
    expect_codes_identical(bank, xs, ys);

    bank.add(std::make_unique<CircleBoundary>(0.7, 0.7, 0.2));
    try {
        (void)kernels::CompiledMonitorBank::compile(bank);
        FAIL() << "a CircleBoundary was compiled";
    } catch (const InvalidInput& e) {
        EXPECT_NE(std::string(e.what()).find("monitor 3 of 4"), std::string::npos)
            << e.what();
    }
    // A pipeline compiles its bank, so it refuses the bank too.
    EXPECT_THROW((void)core::SignaturePipeline(bank, core::paper_stimulus()), InvalidInput);
    // Nor can the bank name itself: a fingerprint is never empty.
    EXPECT_THROW((void)bank.fingerprint(), ContractError);
}

TEST(EncodeCodes, MatchesEncodeEvents) {
    Rng rng(46u);
    std::vector<double> xs;
    std::vector<double> ys;
    random_trace(rng, 4096, xs, ys);
    const auto bank = monitor::build_table1_bank();
    const double dt = 1e-7;

    std::vector<capture::CodeEvent> virtual_events;
    capture::Chronogram::encode_events(xs, ys, dt, bank, virtual_events);

    const auto compiled = kernels::CompiledMonitorBank::compile(bank);
    std::vector<unsigned> codes;
    compiled.codes_into(xs, ys, codes);
    std::vector<capture::CodeEvent> kernel_events;
    capture::Chronogram::encode_codes(codes, dt, kernel_events);

    ASSERT_EQ(kernel_events.size(), virtual_events.size());
    for (std::size_t i = 0; i < kernel_events.size(); ++i) {
        ASSERT_EQ(kernel_events[i].t, virtual_events[i].t) << "event " << i;
        ASSERT_EQ(kernel_events[i].code, virtual_events[i].code) << "event " << i;
    }
}

core::SignaturePipeline make_pipeline(double noise_sigma = 0.0,
                                      bool quantise = false) {
    core::PipelineOptions opts;
    opts.samples_per_period = 2048;
    opts.noise_sigma = noise_sigma;
    opts.quantise = quantise;
    if (quantise)
        opts.capture = {.f_clk = 20e6, .counter_bits = 24};
    return core::SignaturePipeline(monitor::build_table1_bank(),
                                   core::paper_stimulus(), opts);
}

void expect_same_events(const capture::Chronogram& a,
                        const capture::Chronogram& b) {
    ASSERT_EQ(a.period(), b.period());
    ASSERT_EQ(a.code_bits(), b.code_bits());
    ASSERT_EQ(a.events().size(), b.events().size());
    for (std::size_t i = 0; i < a.events().size(); ++i) {
        ASSERT_EQ(a.events()[i].t, b.events()[i].t) << "event " << i;
        ASSERT_EQ(a.events()[i].code, b.events()[i].code) << "event " << i;
    }
}

/// The scratch path (set_golden/golden(), evaluate, ndf_of) against the
/// virtual observation path (chronogram(): Chronogram::from_trace over
/// MonitorBank::code, then the capture unit when quantising), event for
/// event and NDF for NDF. Noisy members draw from one seed on both paths.
void expect_scratch_path_is_virtual_path(core::SignaturePipeline& pipe) {
    const filter::BehaviouralCut golden(core::paper_biquad());
    pipe.set_golden(golden);
    expect_same_events(pipe.golden(), pipe.chronogram(golden));
    core::NdfScratch scratch;
    std::uint64_t seed = 1;
    for (double dev = -0.2; dev <= 0.2001; dev += 0.04, ++seed) {
        const filter::BehaviouralCut cut(core::paper_biquad().with_f0_shift(dev));
        Rng virtual_rng(seed);
        const capture::Chronogram reference = pipe.chronogram(cut, &virtual_rng);
        const double reference_ndf = core::ndf(reference, pipe.golden());
        Rng scratch_rng(seed);
        const auto eval = pipe.evaluate(cut, scratch, &scratch_rng);
        expect_same_events(eval.observed, reference);
        ASSERT_EQ(eval.ndf, reference_ndf) << "deviation " << dev;
        Rng ndf_rng(seed);
        ASSERT_EQ(pipe.ndf_of(cut, scratch, &ndf_rng), reference_ndf)
            << "deviation " << dev;
        Rng alloc_rng(seed);
        ASSERT_EQ(pipe.ndf_of(cut, &alloc_rng), reference_ndf)
            << "deviation " << dev;
    }
}

TEST(PipelineKernels, CompiledNdfBitIdenticalToVirtual) {
    core::SignaturePipeline pipe = make_pipeline();
    expect_scratch_path_is_virtual_path(pipe);
}

TEST(PipelineKernels, NoisyAndQuantisedPathsBitIdentical) {
    core::SignaturePipeline noisy = make_pipeline(0.005);
    expect_scratch_path_is_virtual_path(noisy);
    core::SignaturePipeline quantised = make_pipeline(0.0, true);
    expect_scratch_path_is_virtual_path(quantised);
}

TEST(PipelineKernels, BatchEvaluatorUsesCompiledPath) {
    core::SignaturePipeline pipe = make_pipeline();
    pipe.set_golden(filter::BehaviouralCut(core::paper_biquad()));
    std::vector<double> devs;
    for (int d = -15; d <= 15; d += 3)
        devs.push_back(d);
    const core::BatchNdfEvaluator batch(pipe, {.threads = 2});
    const auto ndfs = batch.evaluate_deviations(core::paper_biquad(), devs);
    ASSERT_EQ(ndfs.size(), devs.size());
    for (std::size_t i = 0; i < devs.size(); ++i) {
        const filter::BehaviouralCut cut(
            core::paper_biquad().with_f0_shift(devs[i] / 100.0));
        ASSERT_EQ(ndfs[i], core::ndf(pipe.chronogram(cut), pipe.golden()))
            << "deviation " << devs[i] << "%";
    }
}

// ---------------------------------------------------------------------------
// Pair groups and x lanes.

using Lanes = kernels::CompiledMonitorBank::XPairLanes;

/// Table I's rows with every device swapped to another model or type. A
/// 100 nA comparator offset keeps each monitor's origin probe signed: a
/// level-1 device carries no current below threshold.
monitor::MonitorBank table1_variant(spice::MosModel model, spice::MosType type) {
    monitor::MonitorBank bank;
    for (monitor::MonitorConfig cfg : monitor::table1_configs()) {
        cfg.device.model = model;
        cfg.device.type = type;
        cfg.offset_current = 1e-7;
        bank.add(std::make_unique<monitor::MosCurrentBoundary>(cfg));
    }
    return bank;
}

/// Codes of `compiled` over (xs, ys) in `mode`.
std::vector<unsigned> codes_of(const kernels::CompiledMonitorBank& compiled,
                               std::span<const double> xs, std::span<const double> ys,
                               SampleMode mode = SampleMode::exact) {
    std::vector<unsigned> codes;
    compiled.codes_into(xs, ys, codes, mode);
    return codes;
}

std::vector<unsigned> reference_codes(const monitor::MonitorBank& bank,
                                      std::span<const double> xs,
                                      std::span<const double> ys) {
    std::vector<unsigned> codes(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i)
        codes[i] = bank.code(xs[i], ys[i]);
    return codes;
}

/// Lanes over `xs` with every pair zeroed: reading them changes codes, so
/// a test can tell whether the kernel read them.
std::shared_ptr<const Lanes> poisoned_lanes(const kernels::CompiledMonitorBank& compiled,
                                            std::shared_ptr<const std::vector<double>> xs,
                                            SampleMode mode) {
    Lanes lanes = compiled.x_pair_lanes(std::move(xs), mode);
    std::fill(lanes.pairs.begin(), lanes.pairs.end(), 0.0);
    return std::make_shared<const Lanes>(std::move(lanes));
}

TEST(CompiledMonitorBank, Table1SharesTwoPairsPerSample) {
    // The 6 unique legs differ only in W: one x pair and one y pair.
    const auto compiled = kernels::CompiledMonitorBank::compile(monitor::build_table1_bank());
    EXPECT_EQ(compiled.unique_leg_count(), 6u);
    EXPECT_EQ(compiled.pair_count(), 2u);
}

TEST(CompiledMonitorBank, PerturbedLevel1AndPmosBanksBitIdentical) {
    Rng rng(8u);
    monitor::MonitorBank perturbed;
    for (int row = 1; row <= 6; ++row)
        perturbed.add(std::make_unique<monitor::MosCurrentBoundary>(
            monitor::perturb_monitor(monitor::table1_config(row), rng)));
    std::vector<double> xs;
    std::vector<double> ys;
    random_trace(rng, 2048, xs, ys);

    // Perturbed thresholds split the groups; a level-1 bank has none; a
    // pMOS bank groups like Table I but in a mirrored frame fast_math does
    // not batch, so its fast codes are the exact ones.
    const auto level1 = table1_variant(spice::MosModel::level1, spice::MosType::nmos);
    const auto pmos = table1_variant(spice::MosModel::ekv, spice::MosType::pmos);
    EXPECT_GT(kernels::CompiledMonitorBank::compile(perturbed).pair_count(), 2u);
    EXPECT_EQ(kernels::CompiledMonitorBank::compile(level1).pair_count(), 0u);
    EXPECT_EQ(kernels::CompiledMonitorBank::compile(pmos).pair_count(), 2u);
    for (const monitor::MonitorBank* bank : {&std::as_const(perturbed), &level1, &pmos}) {
        expect_codes_identical(*bank, xs, ys);
        const std::vector<unsigned> reference = reference_codes(*bank, xs, ys);
        EXPECT_NE(std::count(reference.begin(), reference.end(), reference[0]),
                  static_cast<std::ptrdiff_t>(reference.size()))
            << "the trace must cross some boundary";
        const auto compiled = kernels::CompiledMonitorBank::compile(*bank);
        if (bank != &perturbed)
            EXPECT_EQ(codes_of(compiled, xs, ys, SampleMode::fast_math), reference);
    }
}

TEST(CompiledMonitorBank, BoundLanesGiveTheSameCodesInBothModes) {
    Rng rng(9u);
    auto trace = std::make_shared<std::vector<double>>();
    std::vector<double> ys;
    random_trace(rng, 3000, *trace, ys); // not a multiple of the block
    const std::shared_ptr<const std::vector<double>> xs = trace;
    const auto bank = monitor::build_table1_bank();
    const auto plain = kernels::CompiledMonitorBank::compile(bank);
    for (const SampleMode mode : {SampleMode::exact, SampleMode::fast_math}) {
        kernels::CompiledMonitorBank laned = plain;
        laned.bind_x_lanes(std::make_shared<const Lanes>(plain.x_pair_lanes(xs, mode)));
        const std::vector<double> copy = *xs; // served through the memcmp
        EXPECT_EQ(codes_of(laned, *xs, ys, mode), codes_of(plain, *xs, ys, mode));
        EXPECT_EQ(codes_of(laned, copy, ys, mode), codes_of(plain, *xs, ys, mode));
    }
    EXPECT_EQ(codes_of(plain, *xs, ys), reference_codes(bank, *xs, ys));
}

TEST(CompiledMonitorBank, LanesAreReadOnlyForBitEqualXInTheirMode) {
    Rng rng(10u);
    auto trace = std::make_shared<std::vector<double>>();
    std::vector<double> ys;
    random_trace(rng, 1024, *trace, ys);
    const std::shared_ptr<const std::vector<double>> xs = trace;
    const auto bank = monitor::build_table1_bank();
    auto compiled = kernels::CompiledMonitorBank::compile(bank);
    compiled.bind_x_lanes(poisoned_lanes(compiled, xs, SampleMode::exact));
    const std::vector<unsigned> reference = reference_codes(bank, *xs, ys);

    // Control: the same bits, by pointer or by value, read the lanes.
    const std::vector<double> copy = *xs;
    EXPECT_NE(codes_of(compiled, *xs, ys), reference);
    EXPECT_NE(codes_of(compiled, copy, ys), reference);

    // One ULP on one sample, or the other mode: computed, not read.
    std::vector<double> nudged = *xs;
    nudged[517] = std::nextafter(nudged[517], std::numeric_limits<double>::infinity());
    EXPECT_EQ(codes_of(compiled, nudged, ys), reference_codes(bank, nudged, ys));
    EXPECT_EQ(codes_of(compiled, *xs, ys, SampleMode::fast_math),
              codes_of(kernels::CompiledMonitorBank::compile(bank), *xs, ys,
                       SampleMode::fast_math));
}

TEST(CompiledMonitorBank, FastLanesFallBackToExactOnAYExcursion) {
    Rng rng(11u);
    auto trace = std::make_shared<std::vector<double>>();
    std::vector<double> ys;
    random_trace(rng, 1024, *trace, ys);
    const std::shared_ptr<const std::vector<double>> xs = trace;
    const auto bank = monitor::build_table1_bank();
    auto compiled = kernels::CompiledMonitorBank::compile(bank);
    compiled.bind_x_lanes(poisoned_lanes(compiled, xs, SampleMode::fast_math));
    // Control: an in-domain y reads the fast lanes.
    EXPECT_NE(codes_of(compiled, *xs, ys, SampleMode::fast_math),
              codes_of(kernels::CompiledMonitorBank::compile(bank), *xs, ys,
                       SampleMode::fast_math));
    // A softplus argument far outside the vecmath domain: the exact pass,
    // which computes x rather than reading fast lanes.
    ys[300] = 1e6;
    EXPECT_EQ(codes_of(compiled, *xs, ys, SampleMode::fast_math),
              reference_codes(bank, *xs, ys));
}

/// Every test of the fixture starts and ends with empty lane and golden
/// caches: the tests store poisoned lanes, and a golden zoned with them,
/// under real keys.
class PipelineLanes : public ::testing::Test {
protected:
    void SetUp() override { clear(); }
    void TearDown() override { clear(); }
    static void clear() {
        core::XPairLaneCache::instance().clear();
        core::GoldenSignatureCache::instance().clear();
    }
};

TEST_F(PipelineLanes, NoisyAndSpiceMembersNeverReadTheLanes) {
    const core::SignaturePipeline clean = make_pipeline();
    const std::string fp = clean.fingerprint();
    ASSERT_FALSE(fp.empty());
    ASSERT_EQ(core::XPairLaneCache::instance().size(), 1u);
    Lanes poisoned = *clean.compiled_bank().x_lanes();
    std::fill(poisoned.pairs.begin(), poisoned.pairs.end(), 0.0);
    core::XPairLaneCache::instance().clear();
    core::XPairLaneCache::instance().insert(fp, poisoned);
    core::SignaturePipeline quiet = make_pipeline();
    core::SignaturePipeline noisy = make_pipeline(0.005);
    EXPECT_EQ(quiet.compiled_bank().x_lanes(), noisy.compiled_bank().x_lanes());

    // Control: a noise-free stimulus member zones from the lanes.
    const filter::BehaviouralCut golden(core::paper_biquad());
    quiet.set_golden(golden);
    const std::vector<capture::CodeEvent>& laned = quiet.golden().events();
    const capture::Chronogram computed = quiet.chronogram(golden);
    EXPECT_FALSE(std::equal(laned.begin(), laned.end(), computed.events().begin(),
                            computed.events().end(),
                            [](const capture::CodeEvent& a, const capture::CodeEvent& b) {
                                return a.code == b.code;
                            }));

    // A noisy member: its own x, zoned exactly like the virtual path.
    noisy.set_golden(golden);
    core::NdfScratch scratch;
    const filter::BehaviouralCut cut(core::paper_biquad().with_f0_shift(0.05));
    Rng eval_rng(21u);
    Rng virtual_rng(21u);
    expect_same_events(noisy.evaluate(cut, scratch, &eval_rng).observed,
                       noisy.chronogram(cut, &virtual_rng));

    // A SPICE member: x is a solver node.
    const filter::TowThomasCircuit ckt = core::paper_tow_thomas();
    const filter::SpiceCut spice_cut(std::make_unique<spice::Netlist>(ckt.netlist.clone()),
                                     ckt.input_source, ckt.input_node, ckt.lp_node,
                                     /*settle_periods=*/2);
    expect_same_events(quiet.evaluate(spice_cut, scratch).observed,
                       quiet.chronogram(spice_cut));
}

// ---------------------------------------------------------------------------
// fast_math bits.

/// splitmix64: a portable integer stream, so the perturbed bank below has
/// the same bits under every standard library (std distributions do not).
struct SplitMix {
    std::uint64_t state;
    std::uint64_t next_u64() {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }
    /// Uniform in [-1, 1), exactly representable.
    double next_signed() {
        return static_cast<double>(next_u64() >> 11) * 0x1p-52 - 1.0;
    }
};

/// Table I with fixed Monte-Carlo-style per-leg perturbations (threshold
/// shifts within +-8 mV, kp scales within +-4%).
monitor::MonitorBank fixed_perturbed_bank() {
    SplitMix rng{0xbadc0ffeeULL};
    monitor::MonitorBank bank;
    for (int row = 1; row <= 6; ++row) {
        monitor::MonitorConfig cfg = monitor::table1_config(row);
        for (monitor::MonitorLeg& leg : cfg.legs) {
            leg.vt0_delta += 0.008 * rng.next_signed();
            leg.kp_scale *= 1.0 + 0.04 * rng.next_signed();
        }
        bank.add(std::make_unique<monitor::MosCurrentBoundary>(cfg));
    }
    return bank;
}

/// The fixed trace of the fast_math digest: for every monitor and x in
/// {1/16, ..., 15/16}, a comb of 8193 samples stepping y by 2^-53 across
/// the monitor's exact boundary, so a fast pass whose boundary moves by
/// one step changes a code. The comb's origin comes from dyadic bisection
/// down to a 2^-40 grid, so libm's last bits could move it only for a
/// boundary within a few ULPs of a grid point.
void boundary_comb(const monitor::MonitorBank& bank, std::vector<double>& xs,
                   std::vector<double>& ys) {
    xs.clear();
    ys.clear();
    for (std::size_t m = 0; m < bank.size(); ++m) {
        const monitor::Boundary& b = bank.monitor(m);
        for (int xk = 1; xk < 16; ++xk) {
            const double x = xk / 16.0;
            double lo = 0.0;
            double hi = 0.0;
            bool found = false;
            for (int k = -16; k < 80 && !found; ++k) {
                lo = k / 64.0;
                hi = (k + 1) / 64.0;
                found = b.side(x, lo) != b.side(x, hi);
            }
            if (!found)
                continue;
            const bool side_lo = b.side(x, lo);
            while (hi - lo > 0x1p-40) {
                const double mid = 0.5 * (lo + hi);
                (b.side(x, mid) == side_lo ? lo : hi) = mid;
            }
            for (int j = 0; j <= 8192; ++j) {
                xs.push_back(x);
                ys.push_back(lo + j * 0x1p-53);
            }
        }
    }
}

/// FNV-1a over the codes' 32-bit little-endian values.
std::uint64_t codes_digest(const std::vector<unsigned>& codes) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned c : codes) {
        for (int b = 0; b < 4; ++b) {
            h ^= (static_cast<std::uint64_t>(c) >> (8 * b)) & 0xffu;
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

/// Digest of the fast codes over the bank's boundary comb, plus how many
/// codes the fast pass flips against the exact one there.
std::pair<std::uint64_t, std::size_t> fast_digest(const monitor::MonitorBank& bank) {
    std::vector<double> xs;
    std::vector<double> ys;
    boundary_comb(bank, xs, ys);
    const auto compiled = kernels::CompiledMonitorBank::compile(bank);
    const std::vector<unsigned> fast = codes_of(compiled, xs, ys, SampleMode::fast_math);
    const std::vector<unsigned> exact = codes_of(compiled, xs, ys);
    std::size_t flips = 0;
    for (std::size_t i = 0; i < fast.size(); ++i)
        flips += fast[i] != exact[i] ? 1u : 0u;
    return {codes_digest(fast), flips};
}

// The constants are the ungrouped kernel's fast_math codes (computed at the
// commit before pair groups); the flips show the comb resolves the fast
// pass's own boundary, not just the exact one.
TEST(FastMathBits, Table1DigestUnchanged) {
    const auto [digest, flips] = fast_digest(monitor::build_table1_bank());
    EXPECT_EQ(digest, 0xfa39a8eb8527618eULL);
    EXPECT_GT(flips, 0u);
}

TEST(FastMathBits, PerturbedBankDigestUnchanged) {
    const auto [digest, flips] = fast_digest(fixed_perturbed_bank());
    EXPECT_EQ(digest, 0x22e4239eea9df982ULL);
    EXPECT_GT(flips, 0u);
}

} // namespace
} // namespace xysig
