// perfbench_gen: in-process harness for the repo benchmark (see README.md).
//
// The benchmark measures the program from outside: this binary only calls
// the library's public entry points (benchmark_circuit, FaultList,
// prove_untestable, GaTestGenerator, make_fault_sim_backend and the
// FaultSimBackend calls) and times those calls with steady_clock.  It adds
// no tracing to the library; traced runs read the generator's own
// RunTelemetry metrics and JSONL trace.
//
// Subcommands; each prints one JSON object on stdout:
//
//   reference --profiles P,Q,... --seeds A,B,...
//       Uninterrupted 1-thread `event` runs of (profile i, seed i), several
//       in parallel: the reference test-set digest and detected count.
//
//   run --profile P --threads T --backend B --seeds A,B,... --seconds S
//       [--trace-file F]
//       Set-up repetitions and a timed generator run for every seed (whole
//       passes over the seed list while another pass fits in S seconds).
//       With --trace-file each seed runs once untraced and once traced, the
//       trace lines go to F, and the layer-replay stage runs on the first
//       seed.
//
//   layers --profiles P,Q,... --seeds A,B,...
//       Served-circuit set-up, prover, checkpoint and layer-replay timings.
//
// Exit codes: 0 success, 1 failure while running, 2 bad arguments.
#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/untestable.h"
#include "circuitgen/circuitgen.h"
#include "fault/fault.h"
#include "fsim/backend.h"
#include "fsim/levelized_sim.h"
#include "gatest/test_generator.h"
#include "serve/protocol.h"
#include "sim/logic.h"
#include "telemetry/telemetry.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace gatest;
using serve::JsonWriter;

namespace {

// ---- small helpers -----------------------------------------------------------

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr, "perfbench_gen: %s\n", msg.c_str());
  std::exit(2);
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream in(s);
  std::string item;
  while (std::getline(in, item, ','))
    if (!item.empty()) out.push_back(item);
  return out;
}

std::uint64_t parse_u64(const std::string& s) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (s.empty() || *end != '\0' || s[0] == '-')
    usage_error("expected a non-negative integer, got '" + s + "'");
  return v;
}

/// FNV-1a over the test set's logic strings, one per line.  serve_load.py
/// computes the same digest over served results, so both sides compare bit
/// for bit.
std::string digest(const std::vector<TestVector>& tests) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](char ch) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ull;
  };
  for (const TestVector& v : tests) {
    for (char ch : logic_string(v)) mix(ch);
    mix('\n');
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
  return buf;
}

/// Peak resident set of this process image.  VmHWM, not getrusage's
/// ru_maxrss: Linux carries ru_maxrss across exec, so it would report the
/// launching process's footprint whenever that is larger.
std::uint64_t peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  std::uint64_t kb = 0;
  while (status >> key) {
    if (key == "VmHWM:") {
      status >> kb;
      return kb;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

void put_list(JsonWriter& w, const char* key, const std::vector<double>& xs) {
  w.key(key).begin_array();
  for (double x : xs) w.value(x);
  w.end_array();
}

/// JsonWriter::take() ends the line; nested objects are spliced without it.
std::string take_nested(JsonWriter& w) {
  std::string s = w.take();
  s.pop_back();
  return s;
}

TestGenConfig make_config(std::uint64_t seed, unsigned threads,
                          const std::string& backend) {
  TestGenConfig cfg;  // paper configuration
  cfg.seed = seed;
  cfg.num_threads = threads;
  cfg.fsim_backend = backend;
  return cfg;
}

/// Detected count of `tests` re-simulated from reset on a fresh backend: an
/// independent check of the coverage a generator run reports.
std::size_t resimulate(const Circuit& c, const std::vector<TestVector>& tests,
                       const std::string& backend) {
  FaultList faults(c);
  auto sim = make_fault_sim_backend(backend, c, faults);
  sim->apply_sequence(tests, 0);
  return faults.num_detected();
}

// ---- set-up --------------------------------------------------------------------

struct SetupSamples {
  std::vector<double> build_s, collapse_s, construct_s, setup_s;
};

/// Everything a run does before its first GA run: circuit build, fault
/// enumeration + collapse, generator construction.  Appends at least
/// `min_reps` repetitions taking at least `min_seconds` to `s`.
void time_setup(const std::string& profile, const TestGenConfig& cfg,
                std::size_t min_reps, double min_seconds, SetupSamples& s) {
  Timer wall;
  for (std::size_t n = 0; n < min_reps || wall.elapsed_seconds() < min_seconds;
       ++n) {
    Timer total;
    Timer t;
    const Circuit c = benchmark_circuit(profile);
    s.build_s.push_back(t.elapsed_seconds());
    t.restart();
    FaultList faults(c);
    s.collapse_s.push_back(t.elapsed_seconds());
    t.restart();
    GaTestGenerator gen(c, faults, cfg);
    s.construct_s.push_back(t.elapsed_seconds());
    s.setup_s.push_back(total.elapsed_seconds());
  }
}

void put_setup(JsonWriter& w, const SetupSamples& s) {
  w.begin_object();
  put_list(w, "build_s", s.build_s);
  put_list(w, "collapse_s", s.collapse_s);
  put_list(w, "construct_s", s.construct_s);
  put_list(w, "setup_s", s.setup_s);
  w.end_object();
}

// ---- layer replay ------------------------------------------------------------------

struct ReplaySamples {
  std::vector<double> make_backend_us, replay_s, snapshot_us, restore_us,
      eval_vector_us, eval_sequence_us, apply_vector_us;
  std::int64_t avx2 = -1;  ///< 1/0 for the levelized backend, else -1
};

TestVector random_vector(Rng& rng, std::size_t width) {
  TestVector v(width);
  for (Logic& x : v) x = rng.chance(0.5) ? Logic::One : Logic::Zero;
  return v;
}

/// Drive the FaultSimBackend calls directly on a run's committed test set:
/// at 4 committed prefixes, replay the prefix, snapshot, evaluate seeded
/// candidate vectors and sequences (1, 2 and 4 times the sequential depth),
/// commit the next test vectors, and restore the snapshot.
void layer_replay(const Circuit& c, const std::string& backend,
                  const std::vector<TestVector>& tests, std::uint64_t seed,
                  ReplaySamples& s) {
  if (tests.empty()) return;
  const unsigned depth = std::max(1u, c.sequential_depth());
  FaultList faults(c);
  Timer t;
  auto sim = make_fault_sim_backend(backend, c, faults);
  s.make_backend_us.push_back(t.elapsed_seconds() * 1e6);
  if (const auto* lev = dynamic_cast<const LevelizedFaultSimulator*>(sim.get()))
    s.avx2 = lev->using_avx2() ? 1 : 0;
  Rng rng(seed);
  const std::size_t width = c.num_inputs();
  for (std::size_t k = 1; k <= 4; ++k) {
    const std::size_t p = std::max<std::size_t>(1, tests.size() * k / 5);
    const TestSequence prefix(tests.begin(),
                              tests.begin() + static_cast<long>(p));
    t.restart();
    sim->replay_committed(prefix);
    s.replay_s.push_back(t.elapsed_seconds());

    t.restart();
    const FaultSimSnapshot snap = sim->snapshot();
    s.snapshot_us.push_back(t.elapsed_seconds() * 1e6);

    for (int i = 0; i < 16; ++i) {
      const TestVector v = random_vector(rng, width);
      t.restart();
      sim->evaluate_vector(v);
      s.eval_vector_us.push_back(t.elapsed_seconds() * 1e6);
    }
    for (unsigned mult : {1u, 2u, 4u}) {
      for (int i = 0; i < 4; ++i) {
        TestSequence seq;
        for (unsigned f = 0; f < depth * mult; ++f)
          seq.push_back(random_vector(rng, width));
        t.restart();
        sim->evaluate_sequence(seq);
        s.eval_sequence_us.push_back(t.elapsed_seconds() * 1e6);
      }
    }
    for (std::size_t i = p; i < std::min(tests.size(), p + 8); ++i) {
      t.restart();
      sim->apply_vector(tests[i], static_cast<std::int64_t>(i));
      s.apply_vector_us.push_back(t.elapsed_seconds() * 1e6);
    }
    t.restart();
    sim->restore(snap);
    s.restore_us.push_back(t.elapsed_seconds() * 1e6);
  }
}

struct CheckpointSamples {
  std::vector<double> make_us, restore_s;
};

void put_layers(JsonWriter& w, const ReplaySamples& s,
                const CheckpointSamples& ckpt) {
  w.key("replay").begin_object();
  put_list(w, "make_backend_us", s.make_backend_us);
  put_list(w, "replay_s", s.replay_s);
  put_list(w, "snapshot_us", s.snapshot_us);
  put_list(w, "restore_us", s.restore_us);
  put_list(w, "eval_vector_us", s.eval_vector_us);
  put_list(w, "eval_sequence_us", s.eval_sequence_us);
  put_list(w, "apply_vector_us", s.apply_vector_us);
  w.key("avx2").value(s.avx2);
  w.end_object();
  w.key("checkpoint").begin_object();
  put_list(w, "make_us", ckpt.make_us);
  put_list(w, "restore_s", ckpt.restore_s);
  w.end_object();
}

// ---- generator runs ------------------------------------------------------------------

struct RunRecord {
  std::uint64_t seed = 0;
  bool traced = false;
  double setup_seconds = 0.0;  ///< fault list + generator construction
  double seconds = 0.0;        ///< gen.run()
  TestGenResult result;
  std::string metrics_json;  ///< RunTelemetry snapshot (traced runs only)
};

/// One full generator run with its own fault list.  Only gen.run() is
/// inside the timed interval.  With `trace_lines`, a RunTelemetry bundle is
/// attached and its trace lines are kept in memory.  With `ckpt`, the
/// finished run's checkpoint is made and restored into a fresh generator.
RunRecord generator_run(const Circuit& c, const TestGenConfig& cfg,
                        std::vector<std::string>* trace_lines,
                        CheckpointSamples* ckpt) {
  RunRecord rec;
  rec.seed = cfg.seed;
  Timer t;
  FaultList faults(c);
  GaTestGenerator gen(c, faults, cfg);
  rec.setup_seconds = t.elapsed_seconds();
  telemetry::RunTelemetry telem;
  if (trace_lines) {
    rec.traced = true;
    telem.trace.open([trace_lines](const std::string& line) {
      trace_lines->push_back(line);
    });
    gen.set_telemetry(&telem);
  }
  t.restart();
  rec.result = gen.run();
  rec.seconds = t.elapsed_seconds();
  if (trace_lines) {
    telem.trace.close();
    std::ostringstream os;
    telem.metrics.write_json(os);
    rec.metrics_json = os.str();
  }
  if (ckpt) {
    Checkpoint cp;
    for (int i = 0; i < 5; ++i) {
      t.restart();
      cp = gen.make_checkpoint();
      ckpt->make_us.push_back(t.elapsed_seconds() * 1e6);
    }
    for (int i = 0; i < 3; ++i) {
      FaultList f2(c);
      GaTestGenerator resumed(c, f2, cfg);
      t.restart();
      resumed.restore_from_checkpoint(cp);
      ckpt->restore_s.push_back(t.elapsed_seconds());
    }
  }
  return rec;
}

void put_run(JsonWriter& w, const Circuit& c, const RunRecord& r) {
  // The coverage a run reports must be reproduced by re-simulating its test
  // set from reset on every registered backend.
  bool resim_ok = true;
  for (const std::string& b : fault_sim_backend_names())
    resim_ok = resim_ok &&
               resimulate(c, r.result.test_set, b) == r.result.faults_detected;
  w.begin_object()
      .key("seed").value(r.seed)
      .key("traced").value(r.traced)
      .key("setup_seconds").value(r.setup_seconds)
      .key("seconds").value(r.seconds)
      .key("digest").value(digest(r.result.test_set))
      .key("detected").value(std::uint64_t{r.result.faults_detected})
      .key("vectors").value(std::uint64_t{r.result.test_set.size()})
      .key("stop").value(to_string(r.result.stop_reason))
      .key("resim_ok").value(resim_ok);
  if (!r.metrics_json.empty()) w.key("metrics").raw(r.metrics_json);
  w.end_object();
}

// ---- subcommands ---------------------------------------------------------------

struct Args {
  std::map<std::string, std::string> kv;
  std::string get(const std::string& k, const std::string& def = "") const {
    const auto it = kv.find(k);
    return it == kv.end() ? def : it->second;
  }
  std::string need(const std::string& k) const {
    const auto it = kv.find(k);
    if (it == kv.end()) usage_error("missing --" + k);
    return it->second;
  }
};

std::vector<std::uint64_t> seed_list(const Args& a) {
  std::vector<std::uint64_t> seeds;
  for (const std::string& s : split_csv(a.need("seeds")))
    seeds.push_back(parse_u64(s));
  if (seeds.empty()) usage_error("--seeds is empty");
  return seeds;
}

/// --profiles and --seeds of equal length: job i is (profiles[i], seeds[i]).
std::vector<std::string> aligned_profiles(const Args& a, std::size_t n) {
  const std::vector<std::string> profiles = split_csv(a.need("profiles"));
  if (profiles.size() != n)
    usage_error("--profiles and --seeds must have the same length");
  return profiles;
}

int cmd_reference(const Args& a) {
  const std::vector<std::uint64_t> seeds = seed_list(a);
  const std::vector<std::string> profiles = aligned_profiles(a, seeds.size());
  std::vector<std::string> out(seeds.size());
  std::vector<std::exception_ptr> errors(seeds.size());
  // References are independent runs; spread them over the cores.
  std::atomic<std::size_t> next{0};
  const unsigned workers = std::max(
      1u, std::min<unsigned>(std::thread::hardware_concurrency(),
                             static_cast<unsigned>(seeds.size())));
  std::vector<std::thread> pool;
  for (unsigned w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < seeds.size(); i = next++) {
        try {
          const Circuit c = benchmark_circuit(profiles[i]);
          const RunRecord r = generator_run(
              c, make_config(seeds[i], 1, "event"), nullptr, nullptr);
          JsonWriter jw;
          jw.begin_object()
              .key("profile").value(profiles[i])
              .key("seed").value(seeds[i])
              .key("digest").value(digest(r.result.test_set))
              .key("detected").value(std::uint64_t{r.result.faults_detected})
              .key("faults").value(std::uint64_t{r.result.faults_total})
              .key("vectors").value(std::uint64_t{r.result.test_set.size()})
              .key("stop").value(to_string(r.result.stop_reason))
              .end_object();
          out[i] = take_nested(jw);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      }
    });
  }
  for (std::thread& th : pool) th.join();
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
  JsonWriter w;
  w.begin_object().key("refs").begin_array();
  for (const std::string& r : out) w.raw(r);
  w.end_array().end_object();
  std::fputs(w.take().c_str(), stdout);
  return 0;
}

int cmd_run(const Args& a) {
  const std::string profile = a.need("profile");
  const std::string backend = a.get("backend", "event");
  const auto threads = static_cast<unsigned>(parse_u64(a.get("threads", "1")));
  const auto seconds = static_cast<double>(parse_u64(a.get("seconds", "0")));
  const std::vector<std::uint64_t> seeds = seed_list(a);
  const std::string trace_file = a.get("trace-file");
  const bool traced = !trace_file.empty();
  if (threads == 0) usage_error("--threads must be positive");
  if (!fault_sim_backend_known(backend)) usage_error("unknown backend " + backend);

  const Circuit c = benchmark_circuit(profile);
  JsonWriter w;
  w.begin_object().key("runs").begin_array();
  std::vector<std::string> trace_lines;
  CheckpointSamples ckpt;
  ReplaySamples replay;
  // One set-up takes well under a millisecond.  Sampling it before every
  // seed's runs, not in one burst, spreads the samples over the same
  // stretch of time as the runs, so a passing change in CPU speed moves
  // set-up and run times alike.
  SetupSamples setup;
  const auto sample_setup = [&](std::uint64_t seed) {
    time_setup(profile, make_config(seed, threads, backend), 21, 0.1, setup);
  };
  Timer wall;
  if (!traced) {
    // Whole passes over the seed list while another pass still fits.
    double pass_seconds = 0.0;
    do {
      Timer pass;
      for (std::uint64_t seed : seeds) {
        sample_setup(seed);
        put_run(w, c, generator_run(c, make_config(seed, threads, backend),
                                    nullptr, nullptr));
      }
      pass_seconds = pass.elapsed_seconds();
    } while (wall.elapsed_seconds() + pass_seconds <= seconds);
  } else {
    // Each seed untraced and traced, alternating which goes first; the
    // first seed's traced run also feeds the checkpoint and replay stages.
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      const TestGenConfig cfg = make_config(seeds[i], threads, backend);
      sample_setup(seeds[i]);
      for (int leg = 0; leg < 2; ++leg) {
        const bool with_trace = (leg == 0) == (i % 2 == 1);
        if (!with_trace) {
          put_run(w, c, generator_run(c, cfg, nullptr, nullptr));
          continue;
        }
        trace_lines.push_back("{\"type\":\"perfbench_run\",\"seed\":" +
                              std::to_string(seeds[i]) + "}\n");
        const RunRecord r =
            generator_run(c, cfg, &trace_lines, i == 0 ? &ckpt : nullptr);
        put_run(w, c, r);
        if (i == 0)
          layer_replay(c, backend, r.result.test_set, seeds[i], replay);
      }
    }
    std::ofstream tf(trace_file);
    for (const std::string& line : trace_lines) tf << line;
    if (!tf) throw std::runtime_error("cannot write " + trace_file);
  }
  w.end_array();
  w.key("peak_rss_kb").value(peak_rss_kb());
  if (traced) put_layers(w, replay, ckpt);
  w.key("setup");
  put_setup(w, setup);
  w.end_object();
  std::fputs(w.take().c_str(), stdout);
  return 0;
}

int cmd_layers(const Args& a) {
  const std::vector<std::uint64_t> seeds = seed_list(a);
  const std::vector<std::string> profiles = aligned_profiles(a, seeds.size());
  JsonWriter w;
  w.begin_object().key("setup").begin_array();
  std::vector<double> prove_s;
  CheckpointSamples ckpt;
  ReplaySamples replay;
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    const TestGenConfig cfg = make_config(seeds[i], 1, "event");
    SetupSamples setup;
    time_setup(profiles[i], cfg, 5, 0.0, setup);
    put_setup(w, setup);
    const Circuit c = benchmark_circuit(profiles[i]);
    FaultList faults(c);
    Timer t;
    analysis::prove_untestable(c, faults.faults());
    prove_s.push_back(t.elapsed_seconds());
    const RunRecord r = generator_run(c, cfg, nullptr, &ckpt);
    layer_replay(c, "event", r.result.test_set, seeds[i], replay);
  }
  w.end_array();
  put_list(w, "prove_s", prove_s);
  put_layers(w, replay, ckpt);
  w.end_object();
  std::fputs(w.take().c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2)
    usage_error("usage: perfbench_gen reference|run|layers --key value ...");
  const std::string cmd = argv[1];
  Args a;
  for (int i = 2; i < argc; i += 2) {
    const std::string k = argv[i];
    if (k.rfind("--", 0) != 0 || i + 1 >= argc)
      usage_error("expected --key value pairs, got '" + k + "'");
    a.kv[k.substr(2)] = argv[i + 1];
  }
  try {
    if (cmd == "reference") return cmd_reference(a);
    if (cmd == "run") return cmd_run(a);
    if (cmd == "layers") return cmd_layers(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_gen: %s\n", e.what());
    return 1;
  }
  usage_error("unknown subcommand '" + cmd + "'");
}
