package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Join planning (§4): priority scoring of candidates, the Tuple-Ratio
  * prefilter of Kumar et al. [42], and table grouping into batches that
  * respect the feature budget.
  */
object JoinPlan {

  /** A prepared candidate annotated with planning statistics. */
  final case class PlannedJoin(prepared: JoinExec.PreparedCandidate, score: Double,
                               tupleRatio: Double) {
    def cand: CandidateJoin = prepared.cand
    def nFeatures: Int = prepared.payload.size
  }

  /** Multiple-option keys (§4): ARDA joins on each key option separately,
    * so expand every alternative into its own candidate.
    */
  def expandAlternatives(cands: Seq[CandidateJoin]): Seq[CandidateJoin] =
    cands.flatMap { c =>
      c +: c.altKeys.zipWithIndex.map { case (ks, i) =>
        c.copy(name = s"${c.name}__alt$i", keys = ks, altKeys = Nil)
      }
    }

  /** Prepare and score all candidates against the base table.
    *
    * Intersection score (§4 "Table grouping"): the fraction of distinct
    * base hard-key tuples that appear in the foreign table, a distributed
    * semi-join. The base's distinct tuples are computed once per hard-key
    * signature, cached while planning runs, and matched inside each
    * candidate's preparation query. Pure soft-key candidates score 1.0 (a
    * nearest-neighbour join always matches something); the discovery
    * system's own score, if present, takes precedence.
    *
    * Tuple Ratio (§7.3 / [42]): n_S / n_R with n_S = base-table rows and
    * n_R = the size of the foreign-key domain in the foreign table.
    */
  def plan(base: DataFrame, cands: Seq[CandidateJoin]): Seq[PlannedJoin] = {
    val baseRows = base.count()
    val expanded = expandAlternatives(cands)
    def signature(c: CandidateJoin) = c.keys.filter(_.kind == KeyKind.Hard).map(_.baseCol)
    val sigs = expanded.filter(_.discoveryScore.isEmpty).map(signature).filter(_.nonEmpty).distinct
    val baseKeys = sigs.map { sig =>
      val keys = base.select(sig.map(col): _*).distinct().cache()
      sig -> (keys, keys.count())
    }.toMap
    try expanded.map { c =>
      val keys = if (c.discoveryScore.isEmpty) baseKeys.get(signature(c)) else None
      val p = JoinExec.prepare(c, keys.map(_._1))
      val score = c.discoveryScore.getOrElse(keys match {
        case None             => 1.0
        case Some((_, 0L))    => 0.0
        case Some((_, total)) => p.matchedKeys.get.toDouble / total
      })
      val tr = if (p.distinctKeys == 0) Double.PositiveInfinity else baseRows.toDouble / p.distinctKeys
      PlannedJoin(p, score, tr)
    }
    finally baseKeys.values.foreach(_._1.unpersist(blocking = true))
  }

  /** TR-rule prefilter: drop tables whose tuple ratio is at least τ (the
    * decision rule of [42]: such joins are safe to avoid).
    */
  def trFilter(planned: Seq[PlannedJoin], tau: Double): Seq[PlannedJoin] =
    planned.filter(_.tupleRatio < tau)

  /** Group candidates into join batches (§4 "Table grouping"):
    *  - TableJoin: one table per batch, priority order;
    *  - BudgetJoin: as many tables per batch as fit `budget` features
    *    (a single table wider than the budget ships alone);
    *  - FullMaterialization: all tables in one batch.
    */
  def group(planned: Seq[PlannedJoin], strategy: GroupingStrategy,
            budget: Int): Seq[Seq[PlannedJoin]] = {
    val ordered = planned.sortBy(p => (-p.score, p.cand.name))
    strategy match {
      case GroupingStrategy.TableJoin           => ordered.map(Seq(_))
      case GroupingStrategy.FullMaterialization => if (ordered.isEmpty) Nil else Seq(ordered)
      case GroupingStrategy.BudgetJoin =>
        val batches = Seq.newBuilder[Seq[PlannedJoin]]
        var cur = Vector.empty[PlannedJoin]
        var used = 0
        for (p <- ordered) {
          if (p.nFeatures >= budget && cur.isEmpty) {
            batches += Seq(p) // wider than the budget: ships alone
          } else if (used + p.nFeatures > budget && cur.nonEmpty) {
            batches += cur
            cur = Vector(p); used = p.nFeatures
          } else {
            cur = cur :+ p; used += p.nFeatures
          }
        }
        if (cur.nonEmpty) batches += cur
        batches.result()
    }
  }
}
