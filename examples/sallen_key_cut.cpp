// Beyond the paper's Biquad: testing a Sallen-Key low-pass with the same
// digital-signature method. Demonstrates that the flow is CUT-agnostic:
// any circuit exposing (x, y) observation nodes can be verified.

#include <iostream>

#include "common/strings.h"
#include "common/table.h"
#include "core/paper_setup.h"
#include "core/pipeline.h"
#include "filter/sallen_key.h"
#include "monitor/table1.h"

int main() {
    using namespace xysig;

    // Design a Sallen-Key section equivalent to the paper's Biquad target
    // (f0 = 14 kHz; Q limited to what the unity-gain topology gives).
    filter::BiquadDesign design;
    design.f0 = 14e3;
    design.q = 0.9;
    design.gain = 1.0;
    const filter::Biquad behavioural(design);

    core::PipelineOptions options;
    options.samples_per_period = 1024;
    core::SignaturePipeline pipeline(monitor::build_table1_bank(),
                                     core::paper_stimulus(), options);
    pipeline.set_golden(filter::BehaviouralCut(behavioural));

    TextTable table({"f0 deviation (%)", "NDF (Sallen-Key netlist)",
                     "NDF (behavioural)"});
    for (const double dev : {-15.0, -8.0, -3.0, 3.0, 8.0, 15.0}) {
        filter::SallenKeyCircuit ckt = filter::build_sallen_key(
            filter::SallenKeyDesign::from_biquad(design));
        ckt.inject_f0_shift(dev / 100.0);
        filter::SpiceCut netlist_cut(ckt.netlist, ckt.input_source,
                                     ckt.input_node, ckt.lp_node, 8);
        const double ndf_netlist = pipeline.ndf_of(netlist_cut);

        const filter::BehaviouralCut fast_cut(
            behavioural.with_f0_shift(dev / 100.0));
        const double ndf_fast = pipeline.ndf_of(fast_cut);

        table.add_row({format_double(dev, 3), format_double(ndf_netlist, 4),
                       format_double(ndf_fast, 4)});
    }
    table.print(std::cout);
    std::cout << "\nThe netlist and behavioural paths agree, and NDF grows "
                 "with |deviation| -- the signature method transfers to a "
                 "different CUT topology unchanged.\n";
    return 0;
}
