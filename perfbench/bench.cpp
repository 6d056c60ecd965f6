// perfbench — the repository benchmark. One binary runs one workload:
//
//   reduce-nyx     Nyx-like density 256^3 at relative eb 1e-3
//   reduce-grf     Gaussian random field 256^3 at absolute eb 1e-3
//
// Every workload exercises three phases through the library's public API,
// so every end-to-end metric exists on every workload; the workloads differ
// in their input and in which phase fills the measured time (see README.md):
//
//   codec rep   api::compress_tiled + tiled::decompress, per codec
//               (interp, lorenzo, zfpx), 4 pool lanes
//   workflow    api::compress_adaptive -> api::restore -> uq::ErrorModel::fit
//               -> uq::crossing_probability
//   serve mix   serve::Server (2 lanes, 32 MiB cache, prefetch) holding the
//               field as MRCT, MRCP, MRCA and MRCR, driven by closed-loop
//               wire::Client threads over the in-process transport
//
// All layers are measured from outside: the benchmark wraps its own
// obs::ScopedTimer spans around calls into each module and reads the
// counters the program already keeps (mrc.codec.*_ns, mrc.exec.*,
// mrc.serve.read_us, Server::stats()). With --trace 0 it prints the
// end-to-end metrics, measured with tracing off; with --trace 1 it runs one
// untraced and one traced pass and prints the per-layer metrics.
//
// The last stdout line is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif
#ifdef MRC_HAVE_OPENMP
#include <omp.h>
#endif

#include "adaptive/adaptive.h"
#include "api/mrc_api.h"
#include "common/rng.h"
#include "compressors/simd_kernels.h"
#include "core/workflow.h"
#include "obs/obs.h"
#include "progressive/progressive.h"
#include "pyramid/pyramid.h"
#include "roi/roi_extract.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "simdata/generators.h"
#include "tiled/tiled.h"
#include "uncertainty/error_model.h"
#include "uncertainty/probabilistic_mc.h"

using namespace mrc;

namespace {

// ----------------------------------------------------------- fixed knobs --

constexpr int kLanes = 4;         ///< pool lanes of every reduce call
constexpr int kServeLanes = 2;    ///< serve::Server pool lanes
constexpr int kClients = 2;       ///< closed-loop wire clients
constexpr std::size_t kCacheBytes = 32ull << 20;
constexpr index_t kServeBrick = 32;  ///< brick edge of the served containers
constexpr index_t kView = 32;        ///< viewport edge, in level samples
constexpr int kSetupReps = 3;        ///< set-ups per run; setup_s is their median
constexpr int kWarmReads = 150;      ///< per client, untimed, before measuring
constexpr int kServeStep = 500;      ///< reads per client in one serve window
constexpr index_t kSampleStride = 61;   ///< ErrorModel::fit sample: every 61st voxel
constexpr double kIsoQuantile = 0.9;    ///< crossing isovalue: this sample quantile
constexpr double kBoundSlack = 1e-9;    ///< relative float slack on eb checks
constexpr std::uint64_t kFieldSeed = 1;  ///< generator seed (--seed shifts the field)

/// Layer-sum check (README.md, "Layer-sum check"): a parent's
/// independently measured children may exceed its wall time by at most
/// kLayerOver (clock granularity; more means double counting), and must
/// cover at least (1 - tolerance) of it. The uncovered rest is reported as
/// the parent's self-time metric. Where that self time is real work the
/// program does not instrument (container and brick glue), the tolerance is
/// wide, but a call whose brick spans or stage counters went missing still
/// fails.
constexpr double kLayerOver = 0.02;
constexpr double kTolWorkflow = 0.05;  ///< workflow steps vs the workflow
// Server and client self time is a copy of the reply (encode, parse) plus
// the progressive fold, proportional to region bytes: a tenth to a fifth of
// a read that hits the cache.
constexpr double kTolServer = 0.20;    ///< admitted-read time vs handle_frame
constexpr double kTolClient = 0.30;    ///< handle_frame vs the client call
// Container self time (output allocation, pool start, assembly) reaches
// 40-65% of a Nyx tiled decode; brick self time (per-brick framing) reaches
// a third of the brick spans of a Nyx interp encode.
constexpr double kTolContainer = 0.85;  ///< union of brick spans vs the tiled call
constexpr double kTolBrick = 0.50;      ///< codec stage counters vs the brick spans

const std::array<const char*, 3> kCodecs = {"interp", "lorenzo", "zfpx"};
const std::array<const char*, 4> kKinds = {"tiled", "pyramid", "adaptive", "progressive"};
enum Ds : int { kTiled = 0, kPyramid = 1, kAdaptive = 2, kProgressive = 3 };

enum class Focus { reduce_and_workflow, reduce };

struct Workload {
  const char* name;
  bool grf;           ///< GRF at absolute eb; otherwise Nyx at relative eb
  int min_reps;       ///< codec reps every run makes
  int min_workflows;  ///< workflow runs every run makes
  int min_windows;    ///< serve windows (kServeStep reads per client) every run makes
  Focus focus;        ///< what fills the rest of the measured time
};

constexpr std::array<Workload, 2> kWorkloads = {{
    {"reduce-nyx", false, 6, 2, 5, Focus::reduce_and_workflow},
    {"reduce-grf", true, 5, 2, 5, Focus::reduce},
}};

struct Args {
  const Workload* wl = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  index_t edge = 256;
  std::string sha = "none";
  std::string src_digest = "none";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload reduce-nyx|reduce-grf "
               "--seed N --seconds S --trace 0|1 [--edge 256] [--sha X] "
               "[--src-digest X]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    try {
      if (k == "--workload") {
        for (const auto& w : kWorkloads)
          if (v == w.name) a.wl = &w;
        if (a.wl == nullptr) usage("unknown workload " + v);
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
      } else if (k == "--trace") {
        a.trace = v == "1";
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      } else if (k == "--edge") {
        a.edge = std::stoll(v);
      } else if (k == "--sha") {
        a.sha = v;
      } else if (k == "--src-digest") {
        a.src_digest = v;
      } else {
        usage("unknown argument " + k);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + k + ": " + v);
    }
  }
  if (a.wl == nullptr) usage("--workload is required");
  if (a.seconds <= 0.0) usage("--seconds must be > 0");
  if (a.edge < 64 || (a.edge & (a.edge - 1)) != 0) usage("--edge must be a power of two >= 64");
  return a;
}

// ------------------------------------------------------------- utilities --

/// Counts attempted and failed operations; a failure is a thrown error or a
/// violated output check. The first few failures are logged to stderr.
class Tally {
 public:
  void check(bool ok, const std::string& what) {
    attempted_.fetch_add(1, std::memory_order_relaxed);
    if (ok) return;
    if (failed_.fetch_add(1, std::memory_order_relaxed) < 20)
      std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
  }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_.load(); }
  [[nodiscard]] std::uint64_t failed() const { return failed_.load(); }

 private:
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
};

struct Interval {
  std::uint64_t t0 = 0;
  std::uint64_t t1 = 0;
  [[nodiscard]] double seconds() const { return static_cast<double>(t1 - t0) * 1e-9; }
};

/// Runs `fn` inside a bench span named `span`; returns its clock interval.
template <typename Fn>
Interval timed(const char* span, Fn&& fn) {
  Interval iv;
  iv.t0 = obs::now_ns();
  {
    const obs::ScopedTimer t(span);
    fn();
  }
  iv.t1 = obs::now_ns();
  return iv;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile of `v` (sorted copy).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

std::uint64_t hash_floats(const float* p, std::size_t n) {
  std::uint64_t h = 0x243f'6a88'85a3'08d3ull ^ n;
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  const std::size_t bytes = n * sizeof(float);
  std::size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, b + i, 8);
    h = (h ^ w) * 0x9e37'79b9'7f4a'7c15ull;
    h ^= h >> 32;
  }
  for (; i < bytes; ++i) h = (h ^ b[i]) * 0x100'0000'01b3ull;
  return h;
}

std::uint64_t hash_field(const FieldF& f) {
  return hash_floats(f.data(), static_cast<std::size_t>(f.size()));
}

std::uint64_t hash_bytes(const Bytes& b) {
  std::uint64_t h = 0xcbf2'9ce4'8422'2325ull;
  for (const std::byte c : b) h = (h ^ static_cast<std::uint64_t>(c)) * 0x100'0000'01b3ull;
  return h;
}

/// Samples of `b` farther than `eb` from `a` (every sample when the extents
/// differ).
std::size_t bound_violations(const FieldF& a, const FieldF& b, double eb) {
  if (a.dims() != b.dims()) return static_cast<std::size_t>(std::max(a.size(), index_t{1}));
  const double lim = eb * (1.0 + kBoundSlack);
  std::size_t bad = 0;
  for (index_t i = 0; i < a.size(); ++i)
    bad += std::abs(static_cast<double>(a[i]) - static_cast<double>(b[i])) > lim;
  return bad;
}

FieldF window(const FieldF& f, const tiled::Box& box) {
  const Dim3 e = box.extent();
  FieldF out(e);
  for (index_t z = 0; z < e.nz; ++z)
    for (index_t y = 0; y < e.ny; ++y)
      std::copy_n(&f.at(box.lo.x, box.lo.y + y, box.lo.z + z), e.nx, &out.at(0, y, z));
  return out;
}

// -------------------------------------------------------------- set-up ----

/// The field rolled by a seed-chosen periodic offset per axis. Both
/// generators are spectral, hence periodic, so every seed gets the same
/// field in a different position relative to the brick lattice and the
/// serve traces: other bricks, other reads, the same value distribution.
/// Fresh generator seeds would change what the codecs face: Nyx's relative
/// bound follows the field's extreme value (interp ratio 95-158x over five
/// generator seeds), and the GRF's large-scale power varies its ratios by a
/// few percent.
FieldF periodic_shift(const FieldF& f, std::uint64_t seed) {
  const Dim3 d = f.dims();
  Rng rng(seed);
  const auto ox = static_cast<index_t>(rng.uniform_index(static_cast<std::uint64_t>(d.nx)));
  const auto oy = static_cast<index_t>(rng.uniform_index(static_cast<std::uint64_t>(d.ny)));
  const auto oz = static_cast<index_t>(rng.uniform_index(static_cast<std::uint64_t>(d.nz)));
  FieldF out(d);
  for (index_t z = 0; z < d.nz; ++z)
    for (index_t y = 0; y < d.ny; ++y) {
      const float* src = &f.at(0, (y + oy) % d.ny, (z + oz) % d.nz);
      float* dst = &out.at(0, y, z);
      std::copy_n(src + ox, d.nx - ox, dst);
      std::copy_n(src, ox, dst + (d.nx - ox));
    }
  return out;
}

api::Options base_options(const Workload& wl) {
  api::Options o;
  o.eb = 1e-3;
  o.eb_mode = wl.grf ? api::EbMode::absolute : api::EbMode::relative;
  o.threads = kLanes;
  return o;
}

struct Containers {
  std::array<Bytes, 4> stream;  ///< indexed by Ds
};

struct Prepared {
  FieldF field;
  Containers c;
};

/// Field generation plus the four container builds — everything a run needs
/// before it can measure.
Prepared set_up(const Workload& wl, const Args& a) {
  Prepared p;
  const Dim3 d{a.edge, a.edge, a.edge};
  timed("bench.simdata.generate", [&] {
    p.field = periodic_shift(wl.grf ? sim::gaussian_random_field(d, 3.0, kFieldSeed)
                                    : sim::nyx_density(d, kFieldSeed),
                             a.seed);
  });
  api::Options o = base_options(wl);
  o.codec = "interp";
  o.tile = kServeBrick;
  timed("bench.api.build_containers", [&] {
    p.c.stream[kTiled] = api::compress_tiled(p.field, o);
    p.c.stream[kPyramid] = api::build_pyramid(p.field, o);
    p.c.stream[kAdaptive] = api::compress_adaptive_roi(p.field, o);
    p.c.stream[kProgressive] = api::build_progressive(p.field, o);
  });
  return p;
}

// --------------------------------------------------------- per-layer data --

struct StageNs {
  std::uint64_t pq = 0, ent = 0, ll = 0, run = 0, wait = 0, tasks = 0, bricks = 0;
};

/// The program's own counters the traced run reads around each call.
struct Counters {
  obs::Counter& pq = obs::Registry::global().counter("mrc.codec.predict_quant_ns");
  obs::Counter& ent = obs::Registry::global().counter("mrc.codec.entropy_ns");
  obs::Counter& ll = obs::Registry::global().counter("mrc.codec.lossless_ns");
  obs::Counter& run = obs::Registry::global().counter("mrc.exec.run_ns");
  obs::Counter& wait = obs::Registry::global().counter("mrc.exec.wait_ns");
  obs::Counter& tasks = obs::Registry::global().counter("mrc.exec.tasks");
  obs::Counter& bc = obs::Registry::global().counter("mrc.tiled.bricks_compressed");
  obs::Counter& bd = obs::Registry::global().counter("mrc.tiled.bricks_decoded");
  obs::Histogram& read_us = obs::Registry::global().histogram("mrc.serve.read_us");

  void reset() {
    for (obs::Counter* c : {&pq, &ent, &ll, &run, &wait, &tasks, &bc, &bd}) c->reset();
  }
  [[nodiscard]] StageNs read() const {
    return {pq.value(), ent.value(), ll.value(), run.value(),
            wait.value(), tasks.value(), bc.value() + bd.value()};
  }
};

struct CodecLayer {
  double pq_enc = 0, pq_dec = 0, ent_enc = 0, ent_dec = 0, ll_enc = 0, ll_dec = 0;
};

struct LayerCheck {
  std::string name;
  double coverage = 0.0;
  double tolerance = 0.0;
  [[nodiscard]] bool ok() const {
    return coverage >= 1.0 - tolerance && coverage <= 1.0 + kLayerOver;
  }
};

struct Layers {
  std::map<std::string, CodecLayer> codec;
  double bricks = 0, read_index_s = 0, tiled_self_s = 0, brick_self_s = 0;
  double exec_tasks = 0, exec_run_s = 0, exec_wait_s = 0;
  double brick_busy_s = 0, tiled_wall_s = 0;
  double roi_s = 0, sz3mr_c_s = 0, sz3mr_d_s = 0, reconstruct_s = 0, fit_s = 0,
         crossing_s = 0, workflow_self_s = 0;
  std::vector<LayerCheck> checks;
};

/// Length of the union of [t0, t0 + dur) intervals clipped to `iv`.
double union_seconds(std::vector<std::pair<std::uint64_t, std::uint64_t>> spans,
                     const Interval& iv) {
  std::sort(spans.begin(), spans.end());
  std::uint64_t covered = 0, cur0 = 0, cur1 = 0;
  bool open = false;
  for (auto [a, b] : spans) {
    a = std::max(a, iv.t0);
    b = std::min(b, iv.t1);
    if (b <= a) continue;
    if (open && a <= cur1) {
      cur1 = std::max(cur1, b);
    } else {
      if (open) covered += cur1 - cur0;
      cur0 = a;
      cur1 = b;
      open = true;
    }
  }
  if (open) covered += cur1 - cur0;
  return static_cast<double>(covered) * 1e-9;
}

/// Decomposes one traced tiled call: the union of its brick spans
/// (tiled.brick_*) against the call's wall time, and the codec stage
/// counters against the summed brick spans.
void account_tiled(Layers& L, const char* codec, bool enc, const Interval& iv,
                   const StageNs& s) {
  const char* brick_span = enc ? "tiled.brick_compress" : "tiled.brick_decode";
  std::vector<std::pair<std::uint64_t, std::uint64_t>> bricks;
  double brick_s = 0;
  for (const obs::TraceEvent& e : obs::spans_for(0)) {
    if (e.t0_ns < iv.t0 || e.t0_ns + e.dur_ns > iv.t1 || std::strcmp(e.name, brick_span) != 0)
      continue;
    bricks.emplace_back(e.t0_ns, e.t0_ns + e.dur_ns);
    brick_s += static_cast<double>(e.dur_ns) * 1e-9;
  }
  const double wall = iv.seconds();
  const double covered = union_seconds(bricks, iv);
  const double stages = static_cast<double>(s.pq + s.ent + s.ll) * 1e-9;

  CodecLayer& c = L.codec[codec];
  (enc ? c.pq_enc : c.pq_dec) += static_cast<double>(s.pq) * 1e-9;
  (enc ? c.ent_enc : c.ent_dec) += static_cast<double>(s.ent) * 1e-9;
  (enc ? c.ll_enc : c.ll_dec) += static_cast<double>(s.ll) * 1e-9;
  L.bricks += static_cast<double>(s.bricks);
  L.exec_tasks += static_cast<double>(s.tasks);
  L.exec_run_s += static_cast<double>(s.run) * 1e-9;
  L.exec_wait_s += static_cast<double>(s.wait) * 1e-9;
  L.tiled_self_s += wall - covered;
  L.brick_self_s += brick_s - stages;
  L.brick_busy_s += brick_s;
  L.tiled_wall_s += wall;

  // No brick span, or no stage count, reads as coverage 0 and fails.
  const std::string dir = enc ? ".enc" : ".dec";
  L.checks.push_back({std::string("tiled.") + codec + dir, covered / wall, kTolContainer});
  L.checks.push_back({std::string("codec.") + codec + dir,
                      brick_s > 0 ? stages / brick_s : 0.0, kTolBrick});
}

// ------------------------------------------------------------ codec reps --

struct CodecRun {
  double compress_s = 0, decompress_s = 0;
  std::size_t bytes = 0;
};

/// One rep: every codec compresses the field into the tiled container and
/// decodes it back, at `lanes` pool lanes. Every decoded sample is checked
/// against the absolute bound. With `layers`, each call is decomposed.
std::array<CodecRun, 3> codec_rep(const FieldF& f, const Workload& wl, int lanes,
                                  Tally& tally, Layers* layers) {
  std::array<CodecRun, 3> out;
  api::Options o = base_options(wl);
  o.threads = lanes;
  const double eb = o.absolute_eb(f);
  Counters ctr;
  for (std::size_t k = 0; k < kCodecs.size(); ++k) {
    o.codec = kCodecs[k];
    CodecRun& r = out[k];
    Bytes stream;
    FieldF back;
    try {
      if (layers != nullptr) {
        ctr.reset();
        obs::reset_trace();
      }
      const Interval ic = timed("bench.api.compress_tiled",
                                [&] { stream = api::compress_tiled(f, o); });
      if (layers != nullptr) account_tiled(*layers, kCodecs[k], true, ic, ctr.read());
      r.compress_s = ic.seconds();
      r.bytes = stream.size();
      tally.check(!stream.empty(), std::string("compress ") + kCodecs[k]);

      if (layers != nullptr) {
        const Interval ix = timed("bench.tiled.read_index",
                                  [&] { (void)tiled::read_index(stream); });
        layers->read_index_s += ix.seconds();
        ctr.reset();
        obs::reset_trace();
      }
      const Interval id = timed("bench.tiled.decompress",
                                [&] { back = tiled::decompress(stream, lanes); });
      if (layers != nullptr) account_tiled(*layers, kCodecs[k], false, id, ctr.read());
      r.decompress_s = id.seconds();
      std::fprintf(stderr, "perfbench: %-7s %d lanes: compress %.4f s, decompress %.4f s\n",
                   kCodecs[k], lanes, r.compress_s, r.decompress_s);
      const std::size_t bad = bound_violations(f, back, eb);
      tally.check(bad == 0, std::string("decompress ") + kCodecs[k] + ": " +
                                std::to_string(bad) + " samples beyond eb");
    } catch (const std::exception& e) {
      tally.check(false, std::string("codec rep ") + kCodecs[k] + ": " + e.what());
    }
  }
  return out;
}

// -------------------------------------------------------------- workflow --

struct WorkflowRun {
  double seconds = 0;
  std::size_t bytes = 0;
};

struct WorkflowRef {
  MultiResField adaptive;  ///< roi::extract_adaptive of the field (stored samples)
  double eb = 0;           ///< absolute bound the pipeline must state
  std::uint64_t stream_hash = 0;
  std::size_t stream_bytes = 0;
};

double iso_of(std::vector<float> sample) {
  const auto k = static_cast<std::size_t>(kIsoQuantile * static_cast<double>(sample.size()));
  std::nth_element(sample.begin(), sample.begin() + static_cast<std::ptrdiff_t>(k), sample.end());
  return sample[k];
}

std::vector<float> stride_sample(const FieldF& f) {
  std::vector<float> s;
  s.reserve(static_cast<std::size_t>(f.size() / kSampleStride + 1));
  for (index_t i = 0; i < f.size(); i += kSampleStride) s.push_back(f[i]);
  return s;
}

/// Checks a workflow result: the decoded hierarchy against the ROI
/// extraction of the input (every stored sample within the bound the
/// snapshot states), the stream against the first run's bytes, and the
/// crossing probabilities against [0, 1].
void check_workflow(const WorkflowRef& ref, const Bytes& stream, const MultiResField& mr,
                    const FieldD& prob, Tally& tally) {
  const double stated = api::info(stream).eb;
  bool ok = std::abs(stated - ref.eb) <= ref.eb * kBoundSlack &&
            mr.levels.size() == ref.adaptive.levels.size();
  std::size_t bad = 0;
  for (std::size_t l = 0; ok && l < mr.levels.size(); ++l) {
    const LevelData& a = ref.adaptive.levels[l];
    const LevelData& b = mr.levels[l];
    if (a.data.dims() != b.data.dims() || a.mask != b.mask) {
      ok = false;
      break;
    }
    const double lim = stated * (1.0 + kBoundSlack);
    for (index_t i = 0; i < a.data.size(); ++i)
      bad += a.mask[i] != 0 &&
             std::abs(static_cast<double>(a.data[i]) - static_cast<double>(b.data[i])) > lim;
  }
  tally.check(ok && bad == 0, "workflow restore beyond the stated bound (" +
                                  std::to_string(bad) + " samples)");
  tally.check(hash_bytes(stream) == ref.stream_hash && stream.size() == ref.stream_bytes,
              "workflow stream differs from the first run's bytes");
  bool prob_ok = !prob.empty();
  for (index_t i = 0; prob_ok && i < prob.size(); ++i)
    prob_ok = prob[i] >= 0.0 && prob[i] <= 1.0;
  tally.check(prob_ok, "crossing probability outside [0, 1]");
}

/// The paper's workflow, to the reconstructed field plus its uncertainty
/// map. Untraced it runs through the api facade; traced it runs the same
/// steps one module call at a time (api::compress_adaptive is
/// roi::extract_adaptive + workflow::encode_snapshot, api::restore is
/// workflow::decode_snapshot + reconstruct_uniform), each under its own
/// span, and must produce the same bytes.
WorkflowRun workflow_rep(const FieldF& f, const Workload& wl, WorkflowRef& ref, Tally& tally,
                         Layers* layers) {
  WorkflowRun r;
  api::Options o = base_options(wl);
  try {
    Bytes stream;
    MultiResField mr;
    FieldF u;
    FieldD prob;
    const std::vector<float> orig = stride_sample(f);
    const auto tail = [&] {
      const std::vector<float> dec = stride_sample(u);
      return uq::ErrorModel::fit(orig, dec);
    };
    if (layers == nullptr) {
      const Interval iv = timed("bench.workflow", [&] {
        stream = api::compress_adaptive(f, o);
        mr = api::restore_adaptive(stream);
        u = mr.reconstruct_uniform();
        const uq::ErrorModel model = tail();
        prob = uq::crossing_probability(u, iso_of(orig), model);
      });
      r.seconds = iv.seconds();
    } else {
      Layers& L = *layers;
      double children = 0;
      const auto child = [&](const char* span, double& acc, auto&& fn) {
        const double s = timed(span, fn).seconds();
        acc += s;
        children += s;
      };
      const double eb = o.absolute_eb(f);
      const Interval iv = timed("bench.workflow", [&] {
        MultiResField adaptive;
        child("bench.roi.extract_adaptive", L.roi_s, [&] {
          adaptive = roi::extract_adaptive(f, o.roi_block, o.roi_fraction);
        });
        child("bench.workflow.encode_snapshot", L.sz3mr_c_s, [&] {
          stream = workflow::encode_snapshot(adaptive, eb, o.pipeline());
        });
        child("bench.workflow.decode_snapshot", L.sz3mr_d_s,
              [&] { mr = workflow::decode_snapshot(stream); });
        child("bench.grid.reconstruct_uniform", L.reconstruct_s,
              [&] { u = mr.reconstruct_uniform(); });
        uq::ErrorModel model;
        child("bench.uq.fit", L.fit_s, [&] { model = tail(); });
        const double iso = iso_of(orig);
        child("bench.uq.crossing_probability", L.crossing_s,
              [&] { prob = uq::crossing_probability(u, iso, model); });
      });
      r.seconds = iv.seconds();
      L.workflow_self_s += r.seconds - children;
      L.checks.push_back({"workflow", children / r.seconds, kTolWorkflow});
    }
    r.bytes = stream.size();
    if (ref.stream_hash == 0) {
      ref.stream_hash = hash_bytes(stream);
      ref.stream_bytes = stream.size();
    }
    check_workflow(ref, stream, mr, prob, tally);
  } catch (const std::exception& e) {
    tally.check(false, std::string("workflow: ") + e.what());
  }
  return r;
}

// ----------------------------------------------------------------- serve --

enum class Op : std::uint8_t { pan, lod, progressive, jump };

struct ServeOp {
  Op op = Op::pan;
  int ds = kTiled;
  int level = 0;
  tiled::Box box;
};

struct Served {
  ServeOp req;
  double client_us = 0;
  double server_us = 0;
  std::uint64_t hash = 0;
  bool ok = false;
};

/// One client's seeded request stream: a viewport that pans at level 0 over
/// the four containers in turn, LOD reads at levels 1-2 on the pyramid and
/// progressive datasets, coarse-first progressive reads on MRCR, and one
/// random cold jump in eight reads.
class TraceGen {
 public:
  TraceGen(std::uint64_t seed, const std::array<std::vector<Dim3>, 4>& dims)
      : rng_(seed), dims_(dims) {
    for (double& o : jump_offset_) o = rng_.uniform();
    jump();
  }

  ServeOp next() {
    ServeOp s;
    const std::uint64_t u = rng_.uniform_index(8);
    if (u == 0) {
      jump();
      s.op = Op::jump;
      s.ds = static_cast<int>(rng_.uniform_index(4));
    } else if (u <= 4) {
      pan();
      s.op = Op::pan;
      s.ds = static_cast<int>(pans_++ % 4);
    } else if (u <= 6) {
      s.op = Op::lod;
      s.ds = u == 5 ? kPyramid : kProgressive;
      s.level = 1 + static_cast<int>(rng_.uniform_index(2));
    } else {
      s.op = Op::progressive;
      s.ds = kProgressive;
      s.level = static_cast<int>(rng_.uniform_index(2));
    }
    const auto& levels = dims_[static_cast<std::size_t>(s.ds)];
    s.level = std::min(s.level, static_cast<int>(levels.size()) - 1);
    s.box = view(levels[static_cast<std::size_t>(s.level)], s.level);
    return s;
  }

 private:
  [[nodiscard]] index_t axis_extent(int a) const { return dims_[kTiled][0][a]; }

  /// Jump targets follow the R3 quasi-random sequence from a seeded
  /// offset, so a run's jumps cover the domain evenly: the Nyx field's cost
  /// to decode varies strongly between halos and voids, and a few hundred
  /// independent random jumps left the serve latencies hinging on which
  /// halos they happened to hit.
  void jump() {
    static constexpr std::array<double, 3> kR3 = {0.8191725133961645, 0.6710436067037893,
                                                  0.5497004779019703};
    for (std::size_t a = 0; a < 3; ++a) {
      const double u = jump_offset_[a] + static_cast<double>(jumps_) * kR3[a];
      pos_[a] = static_cast<index_t>((u - std::floor(u)) *
                                     static_cast<double>(axis_extent(static_cast<int>(a)) - kView + 1));
    }
    ++jumps_;
  }

  void pan() {
    if (rng_.uniform_index(8) == 0) axis_ = static_cast<int>(rng_.uniform_index(3));
    const index_t hi = axis_extent(axis_) - kView;
    index_t p = pos_[axis_] + dir_[axis_] * (kView / 2);
    if (p < 0 || p > hi) {
      dir_[axis_] = -dir_[axis_];
      p = std::clamp<index_t>(pos_[axis_] + dir_[axis_] * (kView / 2), 0, hi);
    }
    pos_[axis_] = p;
  }

  /// The viewport's window at `level`, centred on the fine-grid viewport.
  [[nodiscard]] tiled::Box view(const Dim3& d, int level) const {
    tiled::Box b;
    index_t lo[3];
    for (int a = 0; a < 3; ++a) {
      const index_t w = std::min(kView, d[a]);
      const index_t c = (pos_[a] + kView / 2) >> level;
      lo[a] = std::clamp<index_t>(c - w / 2, 0, d[a] - w);
    }
    b.lo = {lo[0], lo[1], lo[2]};
    b.hi = {lo[0] + std::min(kView, d.nx), lo[1] + std::min(kView, d.ny),
            lo[2] + std::min(kView, d.nz)};
    return b;
  }

  Rng rng_;
  const std::array<std::vector<Dim3>, 4>& dims_;
  std::array<index_t, 3> pos_{};
  std::array<index_t, 3> dir_{1, 1, 1};
  int axis_ = 0;
  std::uint64_t pans_ = 0;
  std::array<double, 3> jump_offset_{};
  std::uint64_t jumps_ = 0;
};

/// One serve::Server holding the four containers, plus the clients' trace
/// generators (their positions persist across bursts).
class ServeSession {
 public:
  ServeSession(const Containers& c, std::uint64_t seed)
      : server_(serve::ServerConfig{kCacheBytes, kServeLanes, 8, true, 64}) {
    for (int k = 0; k < 4; ++k) {
      const auto i = static_cast<std::size_t>(k);
      id_[i] = server_.open(c.stream[i], kKinds[i]);
      for (int l = 0; l < server_.levels(id_[i]); ++l) dims_[i].push_back(server_.dims(id_[i], l));
    }
    for (int c = 0; c < kClients; ++c)
      gens_.emplace_back(seed * 0x9e37'79b9ull + 17 + static_cast<std::uint64_t>(c), dims_);
  }

  ServeSession(const ServeSession&) = delete;  // the trace generators hold &dims_
  ServeSession& operator=(const ServeSession&) = delete;

  [[nodiscard]] serve::Server& server() { return server_; }
  [[nodiscard]] const std::array<std::vector<Dim3>, 4>& dims() const { return dims_; }

  /// Runs the clients until each made `reads` reads; returns the reads (in
  /// order per client) and the wall seconds until the last one completed.
  std::pair<std::vector<Served>, double> burst(int reads) {
    std::vector<std::vector<Served>> per(kClients);
    const std::uint64_t t0 = obs::now_ns();
    {
      std::vector<std::thread> th;
      for (int c = 0; c < kClients; ++c)
        th.emplace_back([&, c] { run_client(c, reads, per[static_cast<std::size_t>(c)]); });
      for (auto& t : th) t.join();
    }
    const double wall = static_cast<double>(obs::now_ns() - t0) * 1e-9;
    // Drain the prefetch backlog so it neither steals cores from the next
    // phase nor lands in its counters.
    server_.wait_idle();
    std::vector<Served> all;
    for (auto& v : per) all.insert(all.end(), v.begin(), v.end());
    return {std::move(all), wall};
  }

 private:
  void run_client(int c, int reads, std::vector<Served>& out) {
    std::uint64_t server_ns = 0;
    serve::wire::Client client([this, &server_ns](std::span<const std::byte> frame) {
      const std::uint64_t t = obs::now_ns();
      Bytes reply = server_.handle_frame(frame);
      server_ns = obs::now_ns() - t;
      return reply;
    });
    TraceGen& gen = gens_[static_cast<std::size_t>(c)];
    out.reserve(static_cast<std::size_t>(reads));
    for (int r = 0; r < reads; ++r) {
      Served s;
      s.req = gen.next();
      const std::uint32_t id = id_[static_cast<std::size_t>(s.req.ds)];
      server_ns = 0;
      const std::uint64_t t = obs::now_ns();
      try {
        if (s.req.op == Op::progressive) {
          const auto res = client.read_progressive(id, s.req.level, s.req.box);
          s.client_us = static_cast<double>(obs::now_ns() - t) * 1e-3;
          s.ok = res.complete() && res.data.dims() == s.req.box.extent();
          s.hash = hash_field(res.data);
        } else {
          const FieldF data = client.region(id, s.req.level, s.req.box);
          s.client_us = static_cast<double>(obs::now_ns() - t) * 1e-3;
          s.ok = data.dims() == s.req.box.extent();
          s.hash = hash_field(data);
        }
      } catch (const std::exception& e) {
        s.client_us = static_cast<double>(obs::now_ns() - t) * 1e-3;
        std::fprintf(stderr, "perfbench: serve read failed: %s\n", e.what());
      }
      s.server_us = static_cast<double>(server_ns) * 1e-3;
      out.push_back(s);
    }
  }

  serve::Server server_;
  std::array<std::uint32_t, 4> id_{};
  std::array<std::vector<Dim3>, 4> dims_;
  std::vector<TraceGen> gens_;
};

/// The container's own decode of one whole level — what every served window
/// must match bit for bit.
FieldF reference_level(const Containers& c, int ds, int level, const Dim3& d) {
  const auto& s = c.stream[static_cast<std::size_t>(ds)];
  const tiled::Box all = tiled::full_box(d);
  switch (ds) {
    case kTiled: return tiled::read_region(s, all, kLanes).data;
    case kPyramid: return pyramid::read_region(s, level, all, kLanes).data;
    case kAdaptive: return adaptive::read_region(s, all, kLanes).data;
    default: return progressive::read_region(s, level, all, kLanes);
  }
}

/// Every served region must be bit-identical to its container's own
/// read_region, and every progressive read must have completed.
void verify_served(const std::vector<Served>& reads, const Containers& c,
                   const std::array<std::vector<Dim3>, 4>& dims, Tally& tally) {
  std::map<std::pair<int, int>, std::vector<const Served*>> groups;
  for (const Served& s : reads) groups[{s.req.ds, s.req.level}].push_back(&s);
  for (const auto& [key, list] : groups) {
    FieldF ref;
    try {
      ref = reference_level(c, key.first, key.second,
                            dims[static_cast<std::size_t>(key.first)]
                                [static_cast<std::size_t>(key.second)]);
    } catch (const std::exception& e) {
      for (std::size_t i = 0; i < list.size(); ++i)
        tally.check(false, std::string("reference decode: ") + e.what());
      continue;
    }
    for (const Served* s : list)
      tally.check(s->ok && hash_field(window(ref, s->req.box)) == s->hash,
                  std::string("served ") + kKinds[static_cast<std::size_t>(s->req.ds)] +
                      " level " + std::to_string(s->req.level) +
                      " region differs from the container's read_region");
  }
}

// ------------------------------------------------------------ reporting --

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i)
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                  &regs[4 * i + 3]);
    std::string s(reinterpret_cast<const char*>(regs), sizeof regs);
    s = s.c_str();
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string o;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') o += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) o += ch;
  }
  return o;
}

/// Machine and build stamp, printed before the result line.
void print_stamp(const Args& a, std::size_t input_bytes) {
  int omp_threads = 1;
#ifdef MRC_HAVE_OPENMP
  omp_threads = omp_get_max_threads();
#endif
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  std::printf(
      "stamp {\"cpu\": \"%s\", \"nproc\": %ld, \"isa\": \"%s\", \"git_sha\": \"%s\", "
      "\"src_digest\": \"%s\", \"build_type\": \"%s\", \"mrc_obs_compiled\": %s, "
      "\"lanes\": %d, \"serve_lanes\": %d, \"clients\": %d, \"omp_threads\": %d, "
      "\"input_bytes\": %zu, \"llc_bytes\": %ld, \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d}\n",
      json_escape(cpu_model()).c_str(), sysconf(_SC_NPROCESSORS_ONLN),
      simd::isa_name(simd::active_isa()), json_escape(a.sha).c_str(),
      json_escape(a.src_digest).c_str(), PERFBENCH_BUILD_TYPE,
      obs::kCompiledIn ? "true" : "false", kLanes, kServeLanes, kClients, omp_threads,
      input_bytes, llc, a.wl->name, static_cast<unsigned long long>(a.seed), a.seconds,
      a.trace ? 1 : 0);
}

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("metric %-36s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::string js = "{\"correct\": ";
  js += tally.failed() == 0 ? "true" : "false";
  js += ", \"attempted\": " + std::to_string(tally.attempted());
  js += ", \"failed\": " + std::to_string(tally.failed());
  js += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.12g", std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    js += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
          metrics[i].unit + "\"}";
  }
  js += "}}";
  std::printf("%s\n", js.c_str());
  std::fflush(stdout);
}

double raw_mb(const FieldF& f) { return static_cast<double>(f.size()) * sizeof(float) * 1e-6; }

// --------------------------------------------------------- measured run --

/// --trace 0: with tracing off, run the workload's phases for --seconds
/// (every phase at least its minimum) across kSetupReps set-ups, and report
/// the end-to-end metrics.
std::vector<Metric> run_end_to_end(const Args& a, Tally& tally) {
  const Workload& wl = *a.wl;
  std::vector<double> setup_s;
  Prepared p;
  std::array<std::uint64_t, 4> container_hash{};
  const auto setup = [&] {
    p = {};  // the previous set-up's buffers are released before timing the next
    setup_s.push_back(timed("bench.setup", [&] { p = set_up(wl, a); }).seconds());
    std::fprintf(stderr, "perfbench: setup %.4f s\n", setup_s.back());
    for (std::size_t k = 0; k < container_hash.size(); ++k) {
      const std::uint64_t h = hash_bytes(p.c.stream[k]);
      if (setup_s.size() == 1) container_hash[k] = h;
      tally.check(h == container_hash[k], std::string(kKinds[k]) + " container bytes differ between set-ups");
    }
  };
  setup();
  print_stamp(a, static_cast<std::size_t>(p.field.size()) * sizeof(float));

  WorkflowRef wref;
  wref.adaptive = roi::extract_adaptive(p.field, api::Options{}.roi_block, api::Options{}.roi_fraction);
  wref.eb = base_options(wl).absolute_eb(p.field);
  ServeSession session(p.c, a.seed);
  (void)session.burst(kWarmReads);  // fill the cache: untimed, unchecked, uncounted

  std::array<std::vector<double>, 3> c_s, d_s;
  std::array<std::size_t, 3> c_bytes{};
  std::vector<double> wf_s;
  std::size_t wf_bytes = 0;
  std::vector<Served> reads;
  // One entry per serve window (kServeStep reads per client).
  std::vector<double> win_p50, win_p99, win_rate;
  int reps = 0, workflows = 0, windows = 0;

  const auto rep = [&] {
    const auto runs = codec_rep(p.field, wl, kLanes, tally, nullptr);
    for (std::size_t k = 0; k < runs.size(); ++k) {
      c_s[k].push_back(runs[k].compress_s);
      d_s[k].push_back(runs[k].decompress_s);
      if (c_bytes[k] == 0) c_bytes[k] = runs[k].bytes;
      tally.check(runs[k].bytes == c_bytes[k], std::string("stream size of ") + kCodecs[k] +
                                                   " changed between reps");
    }
    ++reps;
  };
  const auto flow = [&] {
    const WorkflowRun r = workflow_rep(p.field, wl, wref, tally, nullptr);
    wf_s.push_back(r.seconds);
    std::fprintf(stderr, "perfbench: workflow %.4f s\n", r.seconds);
    wf_bytes = r.bytes;
    ++workflows;
  };
  const auto serve_window = [&] {
    auto [got, wall] = session.burst(kServeStep);
    ++windows;
    std::vector<double> ms;
    for (const Served& r : got) ms.push_back(r.client_us * 1e-3);
    win_p50.push_back(quantile(ms, 0.5));
    win_p99.push_back(quantile(ms, 0.99));
    win_rate.push_back(static_cast<double>(got.size()) / wall);
    std::fprintf(stderr, "perfbench: serve window of %zu reads: p50 %.3f ms, p99 %.3f ms, %.1f reads/s\n",
                 got.size(), win_p50.back(), win_p99.back(), win_rate.back());
    reads.insert(reads.end(), got.begin(), got.end());
  };

  // The measured time is cut into kSetupReps parts with a set-up before
  // each but the first, so the samples (and the set-ups) spread over the
  // whole run: the best-of estimators below then see more of the machine's
  // quiet moments. Within a part the phases interleave: each step runs the
  // phase furthest from its share of the minimum, then the workload's focus
  // phase runs to the part's deadline.
  for (int part = 1; part <= kSetupReps; ++part) {
    if (part > 1) setup();
    const double share = static_cast<double>(part) / kSetupReps;
    const std::uint64_t deadline =
        obs::now_ns() + static_cast<std::uint64_t>(a.seconds / kSetupReps * 1e9);
    for (;;) {
      const double fr = static_cast<double>(reps) / wl.min_reps;
      const double fw = static_cast<double>(workflows) / wl.min_workflows;
      const double fs = static_cast<double>(windows) / wl.min_windows;
      const double lowest = std::min({fr, fw, fs});
      if (lowest < share) {
        if (fr == lowest) rep();
        else if (fw == lowest) flow();
        else serve_window();
        continue;
      }
      if (obs::now_ns() >= deadline) break;
      switch (wl.focus) {
        case Focus::reduce_and_workflow: fr <= fw ? rep() : flow(); break;
        case Focus::reduce: rep(); break;
      }
    }
  }
  verify_served(reads, p.c, session.dims(), tally);

  // Estimators (README.md, "Estimators"): the fastest codec rep and
  // workflow; the median serve window.
  const auto lowest = [](const std::vector<double>& v) { return *std::min_element(v.begin(), v.end()); };
  std::vector<Metric> m;
  m.push_back({"setup_s", median(setup_s), "s"});
  for (std::size_t k = 0; k < kCodecs.size(); ++k) {
    const std::string c = kCodecs[k];
    m.push_back({"compress_mbps." + c, raw_mb(p.field) / lowest(c_s[k]), "MB/s"});
    m.push_back({"decompress_mbps." + c, raw_mb(p.field) / lowest(d_s[k]), "MB/s"});
    m.push_back({"ratio." + c,
                 static_cast<double>(p.field.size()) * sizeof(float) /
                     static_cast<double>(std::max<std::size_t>(c_bytes[k], 1)),
                 "x"});
  }
  m.push_back({"workflow_s", lowest(wf_s), "s"});
  m.push_back({"ratio.workflow",
               static_cast<double>(p.field.size()) * sizeof(float) /
                   static_cast<double>(std::max<std::size_t>(wf_bytes, 1)),
               "x"});
  m.push_back({"read_p50_ms", median(win_p50), "ms"});
  m.push_back({"read_p99_ms", median(win_p99), "ms"});
  m.push_back({"reads_per_s", median(win_rate), "1/s"});
  std::printf("samples {\"setups\": %zu, \"codec_reps\": %d, \"workflows\": %d, "
              "\"serve_windows\": %d, \"reads\": %zu}\n",
              setup_s.size(), reps, workflows, windows, reads.size());
  return m;
}

// ----------------------------------------------------------- traced run --

/// Seconds spent inside the rep's compress and decompress calls.
double call_seconds(const std::array<CodecRun, 3>& runs) {
  double s = 0;
  for (const CodecRun& r : runs) s += r.compress_s + r.decompress_s;
  return s;
}

struct PassResult {
  double reduce_s = 0;  ///< inside the codec calls
  double calls_s = 0;   ///< inside the codec, workflow and serve calls
  std::vector<Served> reads;
};

/// --trace 1: one set-up, an untraced pass, a traced pass of the same work
/// (the per-layer metrics), and the codec rep again at one lane. Both
/// passes time the same calls; the traced pass's bookkeeping (read_index,
/// span accounting, counter resets) falls outside those intervals.
std::vector<Metric> run_traced(const Args& a, Tally& tally) {
  const Workload& wl = *a.wl;
  const Prepared p = set_up(wl, a);
  print_stamp(a, static_cast<std::size_t>(p.field.size()) * sizeof(float));
  WorkflowRef wref;
  wref.adaptive = roi::extract_adaptive(p.field, api::Options{}.roi_block, api::Options{}.roi_fraction);
  wref.eb = base_options(wl).absolute_eb(p.field);
  ServeSession session(p.c, a.seed);
  (void)session.burst(kWarmReads);

  const int reads = wl.min_windows * kServeStep;
  Layers L;
  Counters ctr;
  serve::ServerStats before, after;
  double serve_wait_s = 0, read_us_sum = 0;
  // One pass of every phase: a codec rep, a workflow and a serve burst.
  // Traced, the codec and workflow phases reset the counters per call and
  // the serve burst's are read as deltas around it.
  const auto pass = [&](Layers* layers) {
    PassResult r;
    r.reduce_s = call_seconds(codec_rep(p.field, wl, kLanes, tally, layers));
    const double wf_s = workflow_rep(p.field, wl, wref, tally, layers).seconds;
    if (layers != nullptr) {
      ctr.reset();
      ctr.read_us.reset();
      obs::reset_trace();
      before = session.server().stats();
    }
    auto [got, wall] = session.burst(reads);
    if (layers != nullptr) {
      after = session.server().stats();
      serve_wait_s = static_cast<double>(ctr.wait.value()) * 1e-9;
      read_us_sum = static_cast<double>(ctr.read_us.sum());
    }
    r.calls_s = r.reduce_s + wf_s + wall;
    r.reads = std::move(got);
    return r;
  };

  const PassResult plain = pass(nullptr);
  obs::Registry::global().reset();
  obs::reset_trace();
  obs::set_enabled(true);
  const PassResult traced = pass(&L);
  obs::set_enabled(false);

  const double one_lane = call_seconds(codec_rep(p.field, wl, 1, tally, nullptr));

  std::vector<Served> all = plain.reads;
  all.insert(all.end(), traced.reads.begin(), traced.reads.end());
  verify_served(all, p.c, session.dims(), tally);

  // Serve layers: client -> transport (Server::handle_frame) -> admitted read.
  std::vector<double> server_us, client_self_us;
  std::array<std::vector<double>, 4> per_kind_ms;
  double sum_client = 0, sum_server = 0;
  for (const Served& s : traced.reads) {
    server_us.push_back(s.server_us);
    client_self_us.push_back(s.client_us - s.server_us);
    per_kind_ms[static_cast<std::size_t>(s.req.ds)].push_back(s.client_us * 1e-3);
    sum_client += s.client_us;
    sum_server += s.server_us;
  }
  L.checks.push_back({"serve.client", sum_server / sum_client, kTolClient});
  L.checks.push_back({"serve.server", read_us_sum / sum_server, kTolServer});
  for (const LayerCheck& c : L.checks) {
    std::fprintf(stderr, "perfbench: layer check %-20s coverage %.4f (tolerance %.2f) %s\n",
                 c.name.c_str(), c.coverage, c.tolerance, c.ok() ? "ok" : "OUT OF TOLERANCE");
    tally.check(c.ok(), "layer sum " + c.name);
  }

  const double n_reads = std::max<double>(1.0, static_cast<double>(traced.reads.size()));
  const serve::CacheStats& cb = before.cache;
  const serve::CacheStats& ca = after.cache;
  const double lookups = static_cast<double>(ca.lookups - cb.lookups);

  std::vector<Metric> m;
  for (const char* c : kCodecs) {
    const CodecLayer& cl = L.codec[c];
    const std::string n = c;
    if (n == "zfpx") {
      // zfpx's embedded block coder is its whole pipeline; it reports under
      // the entropy counter.
      m.push_back({"compressors.zfpx.blocks_enc_s", cl.ent_enc, "s"});
      m.push_back({"compressors.zfpx.blocks_dec_s", cl.ent_dec, "s"});
      continue;
    }
    m.push_back({"compressors." + n + ".predict_quant_s", cl.pq_enc, "s"});
    m.push_back({"compressors." + n + ".predict_recon_s", cl.pq_dec, "s"});
    m.push_back({"lossless." + n + ".entropy_enc_s", cl.ent_enc, "s"});
    m.push_back({"lossless." + n + ".entropy_dec_s", cl.ent_dec, "s"});
    m.push_back({"lossless." + n + ".lzss_enc_s", cl.ll_enc, "s"});
    m.push_back({"lossless." + n + ".lzss_dec_s", cl.ll_dec, "s"});
  }
  m.push_back({"tiled.bricks", L.bricks, "count"});
  m.push_back({"tiled.read_index_s", L.read_index_s, "s"});
  m.push_back({"tiled.self_s", L.tiled_self_s, "s"});
  m.push_back({"tiled.brick_self_s", L.brick_self_s, "s"});
  m.push_back({"exec.tasks", L.exec_tasks, "count"});
  m.push_back({"exec.run_s", L.exec_run_s, "s"});
  m.push_back({"exec.wait_s", L.exec_wait_s, "s"});
  m.push_back({"exec.lane_utilization", L.brick_busy_s / (kLanes * L.tiled_wall_s), "ratio"});
  m.push_back({"exec.speedup_4v1", one_lane / plain.reduce_s, "x"});
  m.push_back({"roi.extract_s", L.roi_s, "s"});
  m.push_back({"core.sz3mr_compress_s", L.sz3mr_c_s, "s"});
  m.push_back({"core.sz3mr_decompress_s", L.sz3mr_d_s, "s"});
  m.push_back({"grid.reconstruct_s", L.reconstruct_s, "s"});
  m.push_back({"uncertainty.fit_s", L.fit_s, "s"});
  m.push_back({"uncertainty.crossing_s", L.crossing_s, "s"});
  m.push_back({"workflow.self_s", L.workflow_self_s, "s"});
  m.push_back({"serve.cache.hit_ratio",
               lookups > 0 ? static_cast<double>(ca.hits - cb.hits) / lookups : 0.0, "ratio"});
  m.push_back({"serve.cache.misses_per_read",
               static_cast<double>(ca.misses - cb.misses) / n_reads, "1/read"});
  m.push_back({"serve.cache.evictions_per_read",
               static_cast<double>(ca.evictions - cb.evictions) / n_reads, "1/read"});
  m.push_back({"serve.cache.prefetched_per_read",
               static_cast<double>(ca.prefetched - cb.prefetched) / n_reads, "1/read"});
  m.push_back({"serve.server_us.p50", quantile(server_us, 0.5), "us"});
  m.push_back({"serve.server_us.p99", quantile(server_us, 0.99), "us"});
  m.push_back({"serve.server.wire_self_s", (sum_server - read_us_sum) * 1e-6, "s"});
  m.push_back({"serve.wire.client_us.p50", quantile(client_self_us, 0.5), "us"});
  m.push_back({"serve.exec.wait_s", serve_wait_s, "s"});
  for (std::size_t k = 0; k < kKinds.size(); ++k)
    m.push_back({std::string("serve.") + kKinds[k] + ".read_p50_ms",
                 quantile(per_kind_ms[k], 0.5), "ms"});
  m.push_back({"serve.rejected", static_cast<double>(after.rejected - before.rejected), "count"});
  m.push_back({"obs.trace_overhead", traced.calls_s / plain.calls_s, "ratio"});
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  obs::set_enabled(false);
  Tally tally;
  std::vector<Metric> metrics;
  try {
    metrics = a.trace ? run_traced(a, tally) : run_end_to_end(a, tally);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: aborted: %s\n", e.what());
    return 1;
  }
  print_result(tally, metrics);
  return 0;
}
