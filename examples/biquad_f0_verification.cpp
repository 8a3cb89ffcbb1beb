// Production-style verification of a lot of Biquad filters, exercising the
// whole stack the way the paper intends it to be used on silicon:
//
//   * the CUT is the Tow-Thomas circuit realisation simulated by the
//     bundled SPICE engine (not the behavioural shortcut),
//   * manufacturing spread is emulated by random f0 deviations,
//   * signatures pass through the Fig. 5 capture hardware model
//     (10 MHz master clock, 16-bit counter),
//   * the PASS/FAIL band is calibrated for a +/-10% f0 tolerance.

#include <iostream>

#include "common/rng.h"
#include "common/strings.h"
#include "common/table.h"
#include "core/decision.h"
#include "core/paper_setup.h"
#include "core/sweep.h"
#include "filter/tow_thomas.h"
#include "monitor/table1.h"

int main() {
    using namespace xysig;

    core::PipelineOptions options;
    options.samples_per_period = 1024; // SPICE transient resolution
    options.quantise = true;           // go through the capture hardware
    options.capture.f_clk = 10e6;
    options.capture.counter_bits = 16;
    core::SignaturePipeline pipeline(monitor::build_table1_bank(),
                                     core::paper_stimulus(), options);

    const filter::Biquad nominal = core::paper_biquad();
    pipeline.set_golden(filter::BehaviouralCut(nominal));

    // Tolerance band from the behavioural sweep (cheap calibration).
    std::vector<double> grid;
    for (int d = -20; d <= 20; d += 4)
        grid.push_back(d);
    const auto sweep = core::deviation_sweep(pipeline, nominal, grid);
    const auto threshold = core::NdfThreshold::from_sweep(sweep, 10.0);
    std::cout << "calibrated NDF threshold (+/-10% f0): "
              << format_double(threshold.threshold(), 4) << "\n\n";

    // A lot of 10 "manufactured" Tow-Thomas circuits: f0 spread sigma = 6%.
    Rng rng(88);
    TextTable report({"die", "true f0 dev (%)", "NDF", "verdict", "correct?"});
    int correct = 0;
    const int lot_size = 10;
    for (int die = 0; die < lot_size; ++die) {
        const double dev = rng.normal(0.0, 0.06);

        filter::TowThomasCircuit ckt = core::paper_tow_thomas();
        ckt.inject_f0_shift(dev);
        filter::SpiceCut cut(ckt.netlist, ckt.input_source, ckt.input_node,
                             ckt.lp_node, 8);

        const double ndf_value = pipeline.ndf_of(cut);
        const bool pass =
            threshold.classify(ndf_value) == core::TestOutcome::pass;
        const bool truly_good = std::abs(dev) <= 0.10;
        const bool agreed = pass == truly_good;
        correct += agreed ? 1 : 0;
        report.add_row({std::to_string(die), format_double(dev * 100.0, 3),
                        format_double(ndf_value, 4), pass ? "PASS" : "FAIL",
                        agreed ? "yes" : "NO (band edge)"});
    }
    report.print(std::cout);
    std::cout << "\nverdicts agreeing with the true +/-10% band: " << correct
              << "/" << lot_size << "\n";
    return 0;
}
