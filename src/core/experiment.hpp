/**
 * @file
 * First-class experiments.
 *
 * An Experiment is one paper artifact (a table, a figure, an ablation)
 * expressed as a named, parameterized, registry-resolvable object:
 *
 *   name()        - stable identifier, equal to the seed bench binary's
 *                   basename (e.g. "tab1_plru_eviction");
 *   description() - one-line summary shown by `lruleak list`;
 *   params()      - declarative ParamSpec set (see core/param.hpp);
 *   run()         - the measurement body, emitting into a ResultSink.
 *
 * Registrations self-register via static Registrar objects (see the
 * LRULEAK_REGISTER_EXPERIMENT macro), so adding an experiment is one
 * translation unit under src/experiments/ and nothing else: the CLI,
 * `run-all` and the catalog tests all pick it up through
 * Registry::instance().
 */

#ifndef LRULEAK_CORE_EXPERIMENT_HPP
#define LRULEAK_CORE_EXPERIMENT_HPP

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/param.hpp"
#include "core/result_sink.hpp"

namespace lruleak::core {

/** One registered paper artifact. */
class Experiment
{
  public:
    virtual ~Experiment() = default;

    virtual std::string name() const = 0;
    virtual std::string description() const = 0;
    virtual std::vector<ParamSpec> params() const { return {}; }

    /**
     * Run with validated parameters.  Implementations emit everything
     * through @p sink; begin()/end() are the caller's responsibility
     * (see runExperiment).
     */
    virtual void run(const ParamMap &params, ResultSink &sink) const = 0;

    /**
     * Parameter overrides for a reduced-scale run (CI smoke tests and
     * the golden-snapshot suite; the CLI's `run --smoke`).  The default
     * clamps the conventionally named scale knobs (trials, bits,
     * repeats, samples, measurements, rounds, instructions) toward CI
     * size; experiments with unusual cost drivers override this.  The
     * result must leave the run deterministic and seconds-fast.
     */
    virtual std::map<std::string, std::string> smokeParams() const;
};

/** Name -> Experiment catalog. */
class Registry
{
  public:
    static Registry &instance();

    /** Throws std::logic_error on duplicate names. */
    void add(std::unique_ptr<Experiment> experiment);

    /**
     * nullptr when @p name is not registered.  Accepts '-' for '_'
     * (`lruleak run xcore-error-rate` resolves `xcore_error_rate`), so
     * CLI spellings match the hyphenated channel/uarch token style.
     */
    const Experiment *find(const std::string &name) const;

    /** All experiments, sorted by name. */
    std::vector<const Experiment *> all() const;

    std::size_t size() const { return experiments_.size(); }

  private:
    std::map<std::string, std::unique_ptr<Experiment>> experiments_;
};

/** Static-initialization hook used by LRULEAK_REGISTER_EXPERIMENT. */
struct Registrar
{
    explicit Registrar(std::unique_ptr<Experiment> experiment);
};

#define LRULEAK_REGISTER_EXPERIMENT(cls)                                   \
    static const ::lruleak::core::Registrar lruleak_registrar_##cls{       \
        std::make_unique<cls>()};

/**
 * Resolve overrides against the experiment's ParamSpecs and run it,
 * wrapping the run in sink begin()/end().  Throws ParamError on bad
 * overrides.
 */
void runExperiment(const Experiment &experiment,
                   const std::map<std::string, std::string> &overrides,
                   ResultSink &sink);

} // namespace lruleak::core

#endif // LRULEAK_CORE_EXPERIMENT_HPP
