// Sweep-service scaling report: the sharded SweepService versus the serial
// scratch-path reference at 1, 2, 4 and 8 workers, on a behavioural
// deviation grid and on the Tow-Thomas SPICE fault universe. Each row
// reports the shard size the service derived (work_unit_size). Every row is
// gated on bit-identity with the serial NDFs (nonzero exit when any result
// diverges, so CI can rely on the exit code) and the SPICE rows
// additionally gate on the clone-per-worker contract via the
// Netlist::clone_count() probe.
//
// Flags: --smoke (reduced sizes for CI), --json=PATH (machine-readable
// summary; default bench_sweep_service.json).

#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "capture/fault_injection.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "common/table.h"
#include "core/batch_ndf.h"
#include "core/paper_setup.h"
#include "server/sweep_service.h"
#include "support/server_helpers.h"
#include "support/timing.h"

namespace {

using namespace xysig;

struct Row {
    std::string workload;
    unsigned workers = 0; ///< 0: the serial reference
    std::size_t shard_size = 0;
    double seconds = 0.0;
    double members_per_s = 0.0;
    double speedup = 1.0;
    bool bit_identical = true;
    std::uint64_t clones = 0;
};

void write_json(const std::string& path, bool smoke, std::size_t grid_size,
                std::size_t fault_count, const std::vector<Row>& rows,
                bool all_identical) {
    std::ofstream out(path);
    if (!out) {
        std::cerr << "warning: cannot write " << path << "\n";
        return;
    }
    out << "{\n";
    out << "  \"bench\": \"sweep_service\",\n";
    out << "  \"mode\": \"" << (smoke ? "smoke" : "full") << "\",\n";
    out << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
        << ",\n";
    out << "  \"grid_members\": " << grid_size << ",\n";
    out << "  \"spice_faults\": " << fault_count << ",\n";
    out << "  \"all_bit_identical\": " << (all_identical ? "true" : "false")
        << ",\n";
    out << "  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row& r = rows[i];
        out << "    {\"workload\": \"" << r.workload << "\", \"shard_size\": "
            << r.shard_size << ", \"workers\": " << r.workers
            << ", \"seconds\": " << format_double(r.seconds, 6)
            << ", \"members_per_s\": " << format_double(r.members_per_s, 6)
            << ", \"speedup\": " << format_double(r.speedup, 4)
            << ", \"netlist_clones\": " << r.clones << ", \"bit_identical\": "
            << (r.bit_identical ? "true" : "false") << "}"
            << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
}

} // namespace

int main(int argc, char** argv) {
    bool smoke = false;
    std::string json_path = "bench_sweep_service.json";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke")
            smoke = true;
        else if (arg.rfind("--json=", 0) == 0)
            json_path = arg.substr(7);
    }

    const std::size_t grid_size = smoke ? 400 : 4000;
    const std::size_t spp = smoke ? 256 : 1024;
    const std::vector<unsigned> worker_counts = {1, 2, 4, 8};

    std::cout << "=== [sweep service] sharded sweep vs serial reference, "
              << (smoke ? "smoke" : "full") << " mode ===\n";
    std::cout << "hardware_concurrency: " << std::thread::hardware_concurrency()
              << " (speedup is bounded by physical cores; determinism is not)\n";

    std::vector<Row> rows;
    bool all_identical = true;

    // ------------------------------------------------ behavioural grid
    {
        const filter::Biquad nominal = core::paper_biquad();
        std::vector<double> deviations;
        deviations.reserve(grid_size);
        for (std::size_t i = 0; i < grid_size; ++i)
            deviations.push_back(-20.0 + 40.0 * static_cast<double>(i) /
                                             static_cast<double>(grid_size - 1));

        core::SignaturePipeline serial_pipe =
            server::make_pipeline({.samples_per_period = spp});
        serial_pipe.set_golden(filter::BehaviouralCut(nominal));
        std::vector<double> serial(grid_size);
        const double t_serial = seconds_of([&] {
            core::NdfScratch scratch;
            for (std::size_t i = 0; i < grid_size; ++i) {
                const double frac = deviations[i] / 100.0;
                const filter::BehaviouralCut cut(nominal.with_f0_shift(frac));
                serial[i] = serial_pipe.ndf_of(cut, scratch);
            }
        });
        rows.push_back({"deviation grid", 0, 0, t_serial,
                        static_cast<double>(grid_size) / t_serial, 1.0, true,
                        0});

        for (const unsigned workers : worker_counts) {
            server::SweepService service(
                server::make_pipeline({.samples_per_period = spp}),
                server::SweepServiceOptions{workers});
            const server::SweepJob job =
                server::SweepJob::deviation_grid(nominal, deviations);
            std::vector<double> streamed;
            streamed.reserve(grid_size);
            const double dt = seconds_of([&] {
                streamed.clear();
                (void)service.run(job, [&](const server::SweepResult& r) {
                    streamed.push_back(r.ndf);
                });
            });
            const bool identical = server::same_bits(streamed, serial);
            all_identical = all_identical && identical;
            rows.push_back({"deviation grid", workers,
                            work_unit_size(grid_size, workers), dt,
                            static_cast<double>(grid_size) / dt, t_serial / dt,
                            identical, 0});
        }
    }

    // ------------------------------------------------ SPICE fault universe
    std::size_t fault_count = 0;
    {
        const auto circuit = core::paper_tow_thomas();
        const core::SpiceObservation obs{circuit.input_source,
                                         circuit.input_node, circuit.lp_node,
                                         /*settle_periods=*/smoke ? 2 : 4};
        capture::FaultUniverseOptions fopts;
        auto faults = capture::enumerate_bridging_faults(circuit.netlist, fopts);
        const auto opens = capture::enumerate_open_faults(circuit.netlist, fopts);
        faults.insert(faults.end(), opens.begin(), opens.end());
        fault_count = faults.size();

        core::SignaturePipeline serial_pipe =
            server::make_pipeline({.samples_per_period = spp});
        serial_pipe.set_golden(filter::SpiceCut(
            std::make_unique<spice::Netlist>(circuit.netlist.clone()),
            obs.input_source, obs.x_node, obs.y_node, obs.settle_periods));
        const auto universe = core::BatchNdfEvaluator::build_fault_universe(
            circuit.netlist, faults, obs);
        std::vector<double> serial(universe.size());
        const double t_serial = seconds_of([&] {
            core::NdfScratch scratch;
            for (std::size_t i = 0; i < universe.size(); ++i) {
                try {
                    serial[i] = serial_pipe.ndf_of(*universe[i], scratch);
                } catch (const NumericError&) {
                    serial[i] = std::numeric_limits<double>::quiet_NaN();
                }
            }
        });
        rows.push_back({"SPICE fault NDF", 0, 0, t_serial,
                        static_cast<double>(fault_count) / t_serial, 1.0, true,
                        0});

        const auto nominal =
            std::make_shared<spice::Netlist>(circuit.netlist.clone());
        for (const unsigned workers : worker_counts) {
            server::SweepService service(
                server::make_pipeline({.samples_per_period = spp}),
                server::SweepServiceOptions{workers});
            const server::SweepJob job =
                server::SweepJob::fault_universe(nominal, faults, obs);
            std::vector<double> streamed;
            streamed.reserve(fault_count);
            std::uint64_t clones = 0;
            const double dt = seconds_of([&] {
                streamed.clear();
                const auto summary =
                    service.run(job, [&](const server::SweepResult& r) {
                        streamed.push_back(r.ndf);
                    });
                clones = summary.netlist_clones;
            });
            // Gate on bit-identity AND the clone-per-worker contract.
            const bool identical =
                server::same_bits(streamed, serial) && clones <= workers;
            all_identical = all_identical && identical;
            rows.push_back({"SPICE fault NDF", workers,
                            work_unit_size(fault_count, workers), dt,
                            static_cast<double>(fault_count) / dt,
                            t_serial / dt, identical, clones});
        }
    }

    TextTable t({"workload", "shard", "workers", "time (s)", "members/s",
                 "speedup", "clones", "bit-identical"});
    for (const Row& r : rows) {
        t.add_row({r.workload,
                   r.workers == 0 ? "-" : std::to_string(r.shard_size),
                   r.workers == 0 ? "serial" : std::to_string(r.workers),
                   format_double(r.seconds, 4), format_double(r.members_per_s, 1),
                   format_double(r.speedup, 2), std::to_string(r.clones),
                   r.workers == 0 ? "-"
                                  : (r.bit_identical ? "yes" : "NO (BUG)")});
    }
    t.print(std::cout);
    if (!all_identical)
        std::cout << "ERROR: sharded sweep diverged from the serial reference "
                     "(determinism bug) or broke the clone-per-worker "
                     "contract\n";

    write_json(json_path, smoke, grid_size, fault_count, rows, all_identical);
    std::cout << "json: " << json_path << "\n";
    return all_identical ? 0 : 1;
}
