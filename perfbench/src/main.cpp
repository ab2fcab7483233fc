// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload gemm_stream|train_ae|serve_mix --seed N
//             --seconds S --trace 0|1 [--out-dir DIR] [--revision REV]
//
// Prints the host/build stamp, every record tagged exact or timed, and as
// the last stdout line one JSON object: correct / attempted / failed /
// metrics (the end-to-end metrics untraced, the per-layer metrics traced).
// Writes the same records to <out-dir>/record-<workload>-seed<N>-trace<T>.json
// and, traced, the Chrome trace to <out-dir>/trace-<workload>-seed<N>.json.
// Exit status: 0 when every job matched the run_one oracle, 1 when any job
// failed or mismatched, 2 on a usage or set-up error (no result line).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "gemm_stream|train_ae|serve_mix --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR] [--revision REV]\n",
               why);
  return 2;
}

bool parse_u64(const char* s, uint64_t* out) {
  char* end = nullptr;
  *out = std::strtoull(s, &end, 10);
  return end != s && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value after " + a).c_str());
    const char* v = argv[++i];
    uint64_t n = 0;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed" && parse_u64(v, &n)) {
      o.seed = n;
    } else if (a == "--seconds" && parse_u64(v, &n) && n > 0) {
      o.seconds = static_cast<double>(n);
    } else if (a == "--trace" && parse_u64(v, &n) && n <= 1) {
      o.trace = n == 1;
    } else if (a == "--out-dir") {
      o.out_dir = v;
    } else if (a == "--revision") {
      o.revision = v;
    } else {
      return usage(("bad argument " + a + " " + v).c_str());
    }
  }

  Outcome out;
  try {
    if (o.workload == "gemm_stream")
      out = run_gemm_stream(o);
    else if (o.workload == "train_ae")
      out = run_train_ae(o);
    else if (o.workload == "serve_mix")
      out = run_serve_mix(o);
    else
      return usage(("unknown workload `" + o.workload + "`").c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", o.workload.c_str(),
                 e.what());
    return 2;
  }

  const Tally& t = out.tally;
  out.report.add("fail_ratio", t.fail_ratio(), "ratio", Kind::kExact,
                 std::to_string(t.failed) + " of " + std::to_string(t.attempted) +
                     " checked jobs (" + std::to_string(t.mismatches) +
                     " hash/cycle mismatches, " + std::to_string(t.errors) +
                     " errors or refusals)");
  const bool correct = t.correct() && out.fatal.empty();
  const HostStamp host = host_stamp(o.revision);

  std::printf("perfbench %s seed=%llu seconds=%s trace=%d\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed),
              fmt_double(o.seconds).c_str(), o.trace ? 1 : 0);
  std::printf("host: %s\n", host_json(host).c_str());
  std::printf(
      "accuracy: the model is validated only against the paper's published "
      "figures (anchor.* records), not against RTL\n");
  out.report.print(stdout, o.trace ? "records (traced run)" : "records");
  if (!out.fatal.empty()) std::printf("FATAL: %s\n", out.fatal.c_str());

  const std::string record_path = o.out_dir + "/record-" + o.workload +
                                  "-seed" + std::to_string(o.seed) + "-trace" +
                                  (o.trace ? "1" : "0") + ".json";
  std::ofstream rec(record_path);
  rec << "{\n  \"workload\": \"" << json_escape(o.workload)
      << "\",\n  \"seed\": " << o.seed
      << ",\n  \"seconds\": " << fmt_double(o.seconds)
      << ",\n  \"trace\": " << (o.trace ? 1 : 0)
      << ",\n  \"host\": " << host_json(host)
      << ",\n  \"correct\": " << (correct ? "true" : "false")
      << ",\n  \"attempted\": " << t.attempted << ",\n  \"failed\": " << t.failed
      << ",\n  \"records\": " << out.report.records_json() << "\n}\n";
  if (!rec) std::fprintf(stderr, "perfbench: cannot write %s\n", record_path.c_str());

  std::string line;
  try {
    line = out.report.result_line(
        correct, t.attempted, t.failed,
        o.trace ? per_layer_metrics() : end_to_end_metrics());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
