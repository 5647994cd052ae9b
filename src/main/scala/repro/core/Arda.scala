package repro.core

import org.apache.spark.sql.{classic, DataFrame}
import org.apache.spark.sql.execution.LogicalRDD
import org.apache.spark.sql.functions._

import repro.fs.FeatureSelector
import repro.ml.Estimator

/** End-to-end ARDA (§3): coreset → join plan → batched join execution →
  * feature selection → final estimate on the augmented full base table.
  *
  * [[ArdaPipeline]] caches everything that does not depend on the feature
  * selector (coreset, plan, joined batches) so that the evaluation
  * harness can run many selectors over one prepared pipeline, as the
  * paper's Table 1 does.
  */
object Arda {

  /** Outcome of one ARDA run with a given selector. */
  final case class ArdaResult(
      dataset: String,
      method: String,
      baselineScore: Double,
      augmentedScore: Double,
      selected: Seq[String],
      keptCandidates: Seq[String],
      fsSeconds: Double,
      totalSeconds: Double,
      nCandidates: Int,
      nCandidatesAfterFilter: Int,
      nBatches: Int,
  )

  def run(taskDef: AugTask, cfg: ArdaConfig, selector: FeatureSelector): ArdaResult = {
    val p = new ArdaPipeline(taskDef, cfg)
    try p.runSelector(selector)
    finally p.close()
  }
}

/** Selector-independent ARDA state: prepared base, coreset, join plan and
  * per-batch joined/prepared frames (all cached).
  */
final class ArdaPipeline(val taskDef: AugTask, val cfg: ArdaConfig) {
  import Arda._

  private val id = taskDef.idCol
  private var cached = List.empty[DataFrame]
  private def cache(df: DataFrame): DataFrame = {
    val c = df.cache(); c.count(); cached ::= c; c
  }

  /** Eager checkpoints of the coreset folds: the cached batch frames may
    * recompute from them, so they live until close().
    */
  private var checkpoints = List.empty[DataFrame]

  /** Free the blocks behind an eager localCheckpoint. `unpersist` on the
    * frame only reaches the cache manager, not the checkpointed RDD.
    */
  private def release(checkpoint: DataFrame): Unit =
    checkpoint.asInstanceOf[classic.Dataset[_]].queryExecution.logical
      .collect { case r: LogicalRDD => r.rdd.unpersist(blocking = true) }

  /** Full base table, preprocessed. */
  lazy val (baseFull, baseFeats): (DataFrame, Seq[String]) = {
    val (df, feats) = Preprocess.prepare(taskDef.base, taskDef.baseFeatureCols, cfg.seed)
    (cache(df), feats)
  }

  /** The paper's baseline: the estimator on the (prepared) base table. */
  lazy val baselineScore: Double =
    Estimator.autoScore(baseFull, baseFeats, taskDef.target, taskDef.task, cfg.seed)

  /** Coreset of the base table (pre-join sampling strategies; Sketch is
    * applied post-join by the coreset experiments, not here).
    */
  lazy val coreset: DataFrame =
    cache(Coreset.build(taskDef.base, taskDef.target, taskDef.task, cfg))

  lazy val coresetPrepared: (DataFrame, Seq[String]) = {
    val (df, feats) = Preprocess.prepare(coreset, taskDef.baseFeatureCols, cfg.seed)
    (cache(df), feats)
  }

  lazy val planned: Seq[JoinPlan.PlannedJoin] = JoinPlan.plan(taskDef.base, taskDef.candidates)

  lazy val filtered: Seq[JoinPlan.PlannedJoin] =
    cfg.trTau.map(t => JoinPlan.trFilter(planned, t)).getOrElse(planned)

  lazy val batches: Seq[Seq[JoinPlan.PlannedJoin]] =
    JoinPlan.group(filtered, cfg.grouping, cfg.coresetSize)

  /** Fold many candidate joins onto `start`, truncating lineage every few
    * joins — chaining 100+ left joins in one logical plan makes Catalyst
    * analysis quadratic, so we eagerly localCheckpoint periodically.
    * Returns the folded frame and the checkpoints, which the caller frees
    * once nothing can recompute from them.
    */
  private def foldJoins(start: DataFrame, preps: Seq[JoinExec.PreparedCandidate]): (DataFrame, Seq[DataFrame]) = {
    val grans = JoinExec.baseGranularities(start, preps)
    val checkpoints = Seq.newBuilder[DataFrame]
    val joined = preps.zipWithIndex.foldLeft(start) { case (d, (p, i)) =>
      val j = JoinExec.join(d, p, grans, cfg.softJoin, seed = cfg.seed)
      if ((i + 1) % 8 == 0) { val c = j.localCheckpoint(true); checkpoints += c; c } else j
    }
    (joined, checkpoints.result())
  }

  /** Each batch joined against the coreset and preprocessed: (batch,
    * frame keyed by id, new feature columns). Cached once, shared by all
    * selectors.
    */
  lazy val batchFrames: Seq[(Seq[JoinPlan.PlannedJoin], DataFrame, Seq[String])] = {
    val (coreDf, _) = coresetPrepared
    batches.map { batch =>
      val (joined, cps) = foldJoins(coreDf, batch.map(_.prepared))
      checkpoints ++= cps
      val newRaw = joined.columns.filterNot(coreDf.columns.contains).toSeq
      val (prepared, newFeats) = Preprocess.prepare(joined, newRaw, cfg.seed)
      (batch, cache(prepared.select((coreDf.columns.toSeq ++ newFeats).distinct.map(col): _*)), newFeats)
    }
  }

  /** The candidate a prepared feature column came from (columns are
    * `<candidate>__<col>[__is_k]`).
    */
  def sourceOf(feature: String): Option[String] = {
    val i = feature.indexOf("__")
    if (i <= 0) None else Some(feature.substring(0, i))
  }

  /** The raw (pre-binarization) column behind a prepared feature name. */
  private def rawOf(feature: String): String = {
    val i = feature.indexOf("__is_")
    if (i < 0) feature else feature.substring(0, i)
  }

  /** Run feature selection batch-by-batch, then train the final estimator
    * on the augmented full base table.
    */
  def runSelector(selector: FeatureSelector): ArdaResult = {
    require(selector.supports(taskDef.task), s"${selector.name} does not support ${taskDef.task}")
    val t0 = System.nanoTime()
    val (coreDf, coreFeats) = coresetPrepared
    var acc = coreDf
    var kept = Vector.empty[String]
    var fsNanos = 0L
    for ((_, frame, newFeats) <- batchFrames if newFeats.nonEmpty) {
      val selDf =
        if (kept.isEmpty) frame
        else acc.select((col(id) +: kept.map(col)): _*).join(frame, Seq(id))
      val feats = (coreFeats ++ kept ++ newFeats).distinct
      // Sketch coresets apply *after* the join (§3.1): selection sees the
      // count-sketched rows, while batch assembly keeps the real rows.
      val selInput =
        if (cfg.coresetStrategy == CoresetStrategy.Sketch)
          Coreset.sketch(selDf, feats, taskDef.target, taskDef.task, cfg.coresetSize, cfg.seed)
        else selDf
      val f0 = System.nanoTime()
      val sel = selector.select(selInput, feats, taskDef.target, taskDef.task, cfg.seed)
      fsNanos += System.nanoTime() - f0
      val keepNew = newFeats.filter(sel.toSet)
      if (keepNew.nonEmpty) {
        acc = selDf.select((acc.columns.toSeq ++ keepNew).distinct.map(col): _*)
        kept ++= keepNew
      }
    }

    // Final estimate (§3 "Final estimate"): augment the *full* base table
    // with the tables contributing selected features and retrain.
    val keptCands = kept.flatMap(sourceOf).distinct
    val augScore =
      if (kept.isEmpty) baselineScore
      else {
        val preps = filtered.map(_.prepared).filter(p => keptCands.contains(p.cand.name))
        val (joined, cps) = foldJoins(baseFull, preps)
        // Preprocess and autoScore read the fold many times, so run it once.
        // An eager localCheckpoint runs it as a normal adaptive query and so
        // keeps the partition layout that split's rand(seed) and RF bagging
        // see; .cache() does not.
        val full = joined.localCheckpoint(true)
        try {
          val rawKept = kept.map(rawOf).distinct.filter(full.columns.contains)
          val (prepared, newFeats) = Preprocess.prepare(full, rawKept, cfg.seed)
          Estimator.autoScore(prepared, (baseFeats ++ newFeats).distinct,
                              taskDef.target, taskDef.task, cfg.seed)
        } finally (full +: cps).foreach(release)
      }

    ArdaResult(
      dataset = taskDef.name,
      method = selector.name,
      baselineScore = baselineScore,
      augmentedScore = augScore,
      selected = kept,
      keptCandidates = keptCands,
      fsSeconds = fsNanos / 1e9,
      totalSeconds = (System.nanoTime() - t0) / 1e9,
      nCandidates = planned.size,
      nCandidatesAfterFilter = filtered.size,
      nBatches = batches.size,
    )
  }

  def close(): Unit = {
    cached.foreach(_.unpersist(blocking = true))
    checkpoints.foreach(release)
    cached = Nil
    checkpoints = Nil
  }
}
