package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.core._
import repro.data.SynthWorlds
import repro.data.SynthWorlds.World
import repro.exp.Harness
import repro.fs.{FeatureSelector, FeatureSelectors, Rifs}

/** One benchmark workload: a synthetic world (made from the world seed),
  * the ARDA configuration and the selector one pass runs.
  */
final case class Workload(
    name: String,
    defaultSeed: Long,
    world: (SparkSession, Long) => World,
    cfg: ArdaConfig,
    rifs: Option[Rifs.RifsConfig],
    keep: String => Boolean,
) {
  def selector: FeatureSelector =
    rifs.map(new FeatureSelectors.RifsSelector(_)).getOrElse(FeatureSelectors.KeepAll)

  def rifsDescription: String = rifs.fold("none (KeepAll)") { r =>
    s"k=${r.repeats} thresholds=${r.thresholds.mkString("[", ",", "]")} eta=${r.eta} " +
      s"nu=${r.nu} inject=${r.inject} sparsity=${r.sparsity} gamma=${r.gamma}"
  }
}

object Workloads {

  /** `Harness.benchCfg`: coreset 600, budget grouping, cfg.seed 42. */
  private val base = Harness.benchCfg

  /** Each world keeps fewer candidates than its generator makes (School (S)
    * 16, Taxi 29, Poverty 39), and RIFS runs at the bench scale k = 3, so
    * a run fits its time budget; see README.md.
    */
  val all: Seq[Workload] = Seq(
    // RIFS (rankers, ℓ2,1 regression, Algorithm-3 holdout fits) dominates;
    // hard keys with one-to-many pre-aggregation on the join side.
    Workload("school_rifs", 404L, SynthWorlds.schoolS(_, _), base, Some(Harness.RifsBench),
             firstN("dnoise" -> 2, "snoise" -> 1)),
    // Soft as-of joins + resampling + Preprocess, twice (coreset and final
    // estimate on the full base); selection does no work.
    Workload("taxi_soft_all", 101L, SynthWorlds.taxi(_, _),
             base.copy(trTau = Harness.PaperTaus.get("Taxi")), None,
             firstN("weather" -> 1, "tnoise" -> 1)),
    // Table 1's TR-rule row: planning scores every candidate, 3 are joined.
    // Run by hand and by --self-check; BENCHMARK.json leaves it out.
    Workload("poverty_tr", 303L, SynthWorlds.poverty(_, _),
             base.copy(trTau = Harness.PaperTaus.get("Poverty")), None, firstN("rnoise" -> 12)),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(
        s"unknown workload '$name' (known: ${all.map(_.name).mkString(", ")})"))

  /** Candidates named `<prefix><i>` with i < n; every other name passes. */
  private def firstN(limits: (String, Int)*): String => Boolean = name =>
    limits.forall { case (prefix, n) =>
      !name.startsWith(prefix) || name.drop(prefix.length).toIntOption.forall(_ < n)
    }

  /** Keep the workload's candidates and materialise the world's inputs
    * (base and every kept candidate table) in the Spark cache, so passes
    * read generated data instead of regenerating it.
    */
  def materialise(wl: Workload, w: World): (World, Seq[DataFrame]) = {
    def load(df: DataFrame): DataFrame = { val c = df.cache(); c.count(); c }
    val base = load(w.task.base)
    val cands = w.task.candidates.filter(c => wl.keep(c.name)).map(c => c.copy(table = load(c.table)))
    (World(w.task.copy(base = base, candidates = cands), w.signalTables.filter(wl.keep)),
     base +: cands.map(_.table))
  }
}
