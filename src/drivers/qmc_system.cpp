#include "drivers/qmc_system.h"

#include <string>
#include <utility>

#include "drivers/qmc_drivers.h"
#include "estimators/estimators.h"
#include "instrument/memory_tracker.h"
#include "io/job_spec.h"
#include "io/snapshot.h"
#include "instrument/stopwatch.h"
#include "workloads/system_builder.h"
#include "workloads/system_spec.h"

namespace qmcxx
{
namespace
{

template<typename TR>
EngineReport run_typed(const EngineRunSpec& spec, const SystemSpec& sysspec,
                       EngineVariant effective_variant)
{
  auto& mt = MemoryTracker::instance();
  auto& timers = TimerRegistry::instance();
  mt.clearTags();
  const std::size_t mem0 = mt.current();

  const Stopwatch build_watch;
  BuildOptions opt;
  opt.soa_layout = layout_of(effective_variant) == EngineLayout::Soa;
  opt.seed = spec.driver.seed;
  // The spec's delay_rank is a default; an explicit driver request
  // (> 1) wins so job files can still A/B the delayed path.
  opt.delay_rank = spec.driver.delay_rank > 1 ? spec.driver.delay_rank : sysspec.delay_rank;
  QMCSystem<TR> sys = build_system<TR>(sysspec, opt);
  // Measured, not allocated: a layout-sized buffer allocated and freed
  // here, or after the run, raised the serving workload's set-up peak
  // RSS by 7%.
  PooledBuffer layout = PooledBuffer::layout_only();
  sys.twf->register_data(layout);

  // Stamp the workload identity into the driver config so snapshots
  // written by this run carry it, and restores verify it. The resolved
  // spec's content hash distinguishes same-named different-content
  // specs (satellite of the spec-ingestion contract). The variant label
  // is the canonical {layout} x {precision} alias, so an aliased run
  // and its precision-overridden equivalent agree on identity.
  DriverConfig dcfg = spec.driver;
  dcfg.delay_rank = opt.delay_rank;
  dcfg.checkpoint_fingerprint = io::workload_fingerprint(
      sysspec.name, to_string(effective_variant), dcfg.delay_rank, spec_content_hash(sysspec));
  QMCDriver<TR> driver(*sys.elec, *sys.twf, *sys.ham, dcfg);
  if (spec.estimators)
    driver.set_estimators(
        make_default_estimators<TR>(sysspec.lattice, sys.table_ee, sysspec.num_electrons));
  {
    MemoryScope scope("walker-buffers");
    if (spec.resume_path.empty())
      driver.initialize_population();
    else
      driver.restore_snapshot(io::read_snapshot_file(spec.resume_path));
  }
  const FullPrecReal build_seconds = build_watch.seconds();

  EngineReport report;
  report.build_seconds = build_seconds;
  report.footprint_bytes = mt.current() - mem0;
  report.spline_bytes = sys.spos->table_bytes();
  // The const view: reading the size must not write resident state
  // back into buffers.
  report.walker_bytes = std::as_const(driver).population().byte_size();
  report.walker_state_bytes = layout.size();
  report.dist_table_bytes = 0;
  for (int t = 0; t < sys.elec->num_tables(); ++t)
    report.dist_table_bytes += sys.elec->table(t).storage_bytes();

  mt.resetPeak();
  timers.reset();
  report.result = spec.dmc ? driver.run_dmc() : driver.run_vmc();
  report.profile = timers.snapshot();
  report.peak_bytes = mt.peak() - (mem0 < mt.peak() ? mem0 : 0);
  return report;
}

/// Effective compute precision of a run: the explicit policy (job
/// "precision" key / CLI --precision), otherwise the variant alias's
/// precision half. With nothing set, the legacy variant names behave
/// exactly as the old 4-way switch.
Precision resolve_precision(const EngineRunSpec& spec)
{
  if (spec.driver.precision.precision)
    return *spec.driver.precision.precision;
  return precision_of(spec.variant);
}

} // namespace

EngineReport run_engine(const EngineRunSpec& spec)
{
  // One build path: a workload names its committed spec file. Nothing
  // allocated here outlives the parse: one small heap block kept across
  // the build moved the serving workload's set-up peak RSS by 5%.
  const SystemSpec sysspec = spec.spec_path.empty()
      ? workload_spec(spec.workload)
      : io::parse_system_spec(io::read_text_file(spec.spec_path), spec.spec_path);
  const Precision prec = resolve_precision(spec);
  // Orthogonal {layout} x {precision} dispatch: the variant supplies
  // only its layout half once precision is resolved.
  const EngineVariant effective = variant_for(layout_of(spec.variant), prec);

  return prec == Precision::Double ? run_typed<double>(spec, sysspec, effective)
                                   : run_typed<float>(spec, sysspec, effective);
}

} // namespace qmcxx
