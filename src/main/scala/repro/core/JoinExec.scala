package repro.core

import org.apache.spark.sql.{Column, DataFrame, Row}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Join execution (§4).
  *
  * Only LEFT joins are used: augmentation must preserve every base-table
  * row and add no rows. One-to-many matches are removed by pre-aggregating
  * the foreign table on its join keys; soft keys join to the nearest
  * foreign value (optionally interpolating between the two bracketing
  * rows); and time keys with mismatched granularity are resampled —
  * foreign rows are aggregated to the base key's granularity before the
  * join.
  *
  * Soft joins are expressed as a union + window ("as-of join"): base and
  * foreign rows are interleaved, sorted by the soft key (partitioned by
  * any hard key components of a composite key), and `last/first(...,
  * ignoreNulls)` recover the bracketing foreign payloads for every base
  * row in one pass — no cross join.
  */
object JoinExec {

  /** Prefix applied to foreign payload columns: `<candidate>__<column>`. */
  def prefixed(cand: String, col: String): String = s"${cand}__$col"

  private val TimeGrans = Seq(86400.0, 3600.0, 60.0, 1.0)

  /** Per time granularity, the largest remainder of a key modulo it. */
  private def granularityAggs(key: Column): Seq[Column] =
    TimeGrans.map(g => max(abs(pmod(key.cast(DoubleType), lit(g)))))

  /** The coarsest granularity whose remainder (read from `r` at `from`) is 0. */
  private def granularityOf(r: Row, from: Int): Option[Double] =
    TimeGrans.indices
      .find(i => !r.isNullAt(from + i) && r.getDouble(from + i) < 1e-6)
      .map(TimeGrans)

  /** Infer the resolution of a numeric (epoch-seconds) key: the coarsest
    * granularity from day/hour/minute/second that all values align to, or
    * None for keys that are not time-like multiples of a second.
    */
  def inferGranularity(df: DataFrame, keyCol: String): Option[Double] =
    granularities(df, Seq(keyCol)).get(keyCol)

  /** [[inferGranularity]] of several columns of `df` in one query; columns
    * that are not time-like are absent from the map.
    */
  private def granularities(df: DataFrame, keyCols: Seq[String]): Map[String, Double] =
    if (keyCols.isEmpty) Map.empty
    else {
      val aggs = keyCols.flatMap(c => granularityAggs(col(c)))
      val r = df.agg(aggs.head, aggs.tail: _*).head()
      keyCols.zipWithIndex.flatMap { case (c, i) =>
        granularityOf(r, i * TimeGrans.size).map(c -> _)
      }.toMap
    }

  /** The granularity of every soft base column `preps` join on, computed
    * once at the start of a fold. LEFT joins keep the left side's rows and
    * columns, so it holds for every join of the fold.
    */
  def baseGranularities(left: DataFrame, preps: Seq[PreparedCandidate]): Map[String, Double] =
    granularities(left, preps.flatMap(_.cand.keys.filter(_.kind == KeyKind.Soft).map(_.baseCol)).distinct)

  /** A candidate prepared once (§4): its foreign table with payload columns
    * renamed `<candidate>__<column>` (a lazy plan, not a cache) and the
    * per-table facts that planning and every join of it read.
    *
    * @param rows         foreign rows
    * @param distinctKeys distinct key tuples; nulls count as a value, as in `distinct()`
    * @param duplicated   some key tuple occurs more than once (one-to-many)
    * @param granularity  [[inferGranularity]] of the soft key component, if any
    * @param matchedKeys  how many of the base key tuples given to [[prepare]]
    *                     occur among this table's hard-key tuples
    */
  final case class PreparedCandidate(
      cand: CandidateJoin,
      foreign: DataFrame,
      payload: Seq[String],
      rows: Long,
      distinctKeys: Long,
      duplicated: Boolean,
      granularity: Option[Double],
      matchedKeys: Option[Long],
  )

  /** Prepare `cand` with one aggregate query over its distinct key tuples.
    * When `baseKeys` (distinct base tuples of the hard key components,
    * named by their base columns) is given, the same query counts how many
    * of them the table matches: a semi-join, so null keys never match.
    */
  def prepare(cand: CandidateJoin, baseKeys: Option[DataFrame] = None): PreparedCandidate = {
    val soft = cand.keys.indices.filter(cand.keys(_).kind == KeyKind.Soft)
    val hard = cand.keys.indices.filterNot(soft.contains)
    require(soft.size <= 1, s"at most one soft key component supported, got ${soft.size}")
    val keyCols = cand.keys.map(_.foreignCol)
    val payloadCols = cand.table.columns.filterNot(keyCols.contains).toSeq
    val foreign = payloadCols.foldLeft(cand.table) { (d, c) =>
      d.withColumnRenamed(c, prefixed(cand.name, c))
    }

    def k(i: Int) = col(s"__k$i")
    val perKey = cand.table
      .select(keyCols.zipWithIndex.map { case (c, i) => col(c).as(s"__k$i") }: _*)
      .groupBy(keyCols.indices.map(k): _*)
      .agg(count(lit(1)).as("__n"))
    // Each key tuple meets at most one distinct base tuple, so the join
    // keeps one row per key tuple.
    val (facts, matched) = baseKeys match {
      case None => (perKey, Nil)
      case Some(b) =>
        val bk = b.select(hard.map(i => col(cand.keys(i).baseCol).as(s"__b$i")) :+ lit(true).as("__in"): _*)
        val joined = perKey.join(bk, hard.map(i => k(i) === col(s"__b$i")).reduce(_ && _), "left")
        val m =
          if (soft.isEmpty) count(col("__in"))
          else count_distinct(when(col("__in"), struct(hard.map(k): _*)))
        (joined, Seq(m))
    }
    val aggs = Seq(sum(col("__n")), count(lit(1)), max(col("__n"))) ++
      soft.flatMap(i => granularityAggs(k(i))) ++ matched
    val r = facts.agg(aggs.head, aggs.tail: _*).head()
    PreparedCandidate(
      cand, foreign, payloadCols.map(prefixed(cand.name, _)),
      rows = if (r.isNullAt(0)) 0L else r.getLong(0),
      distinctKeys = r.getLong(1),
      duplicated = !r.isNullAt(2) && r.getLong(2) > 1,
      granularity = if (soft.isEmpty) None else granularityOf(r, 3),
      matchedKeys = if (matched.isEmpty) None else Some(r.getLong(r.length - 1)),
    )
  }

  /** Aggregate `df` grouped by `keyCols`: numeric columns → avg, others →
    * min (deterministic representative). Used both for time resampling
    * (key already truncated) and one-to-many pre-aggregation.
    */
  def aggregateByKeys(df: DataFrame, keyCols: Seq[String]): DataFrame = {
    val payload = df.columns.filterNot(keyCols.contains)
    val numeric = df.schema.fields.collect { case StructField(n, _: NumericType, _, _) => n }.toSet
    val aggs = payload.map { c =>
      if (numeric(c)) avg(col(c)).as(c) else min(col(c)).as(c)
    }
    if (aggs.isEmpty) df.select(keyCols.map(col): _*).distinct()
    else df.groupBy(keyCols.map(col): _*).agg(aggs.head, aggs.tail: _*)
  }

  /** Execute one prepared candidate join against `left`, returning `left`
    * plus the candidate's payload columns. `baseGrans` holds the
    * granularity of `left`'s soft key columns ([[baseGranularities]]).
    * Builds the plan only: it launches no Spark job.
    */
  def join(left: DataFrame, prep: PreparedCandidate, baseGrans: Map[String, Double],
           method: SoftJoinMethod = SoftJoinMethod.TwoWayNearestNeighbour,
           tolerance: Option[Double] = None,
           seed: Long = 11L): DataFrame = {
    val hardKeys = prep.cand.keys.filter(_.kind == KeyKind.Hard)
    prep.cand.keys.find(_.kind == KeyKind.Soft) match {
      case None =>
        // One-to-many / many-to-many → pre-aggregate on the join keys (§4).
        val keyCols = hardKeys.map(_.foreignCol)
        val f = if (prep.duplicated) aggregateByKeys(prep.foreign, keyCols) else prep.foreign
        hardJoin(left, f, hardKeys, prep.payload)
      case Some(soft) =>
        softJoin(left, prep, hardKeys, soft, baseGrans.get(soft.baseCol), method, tolerance, seed)
    }
  }

  /** LEFT join on exactly matching keys; `foreign` is unique on them. */
  private def hardJoin(left: DataFrame, foreign: DataFrame,
                       keys: Seq[KeyPair], payload: Seq[String]): DataFrame = {
    val cond = keys.map(k => left(k.baseCol) === foreign(k.foreignCol)).reduce(_ && _)
    val joined = left.join(foreign, cond, "left")
    joined.select(left.columns.map(left(_)) ++ payload.map(foreign(_)): _*)
  }

  /** Soft (as-of) join on a single numeric soft key, with optional hard
    * key components forming the window partition.
    */
  private def softJoin(left: DataFrame, prep: PreparedCandidate,
                       hardKeys: Seq[KeyPair], soft: KeyPair, baseGran: Option[Double],
                       method: SoftJoinMethod,
                       tolerance: Option[Double], seed: Long): DataFrame = {
    val fKeys = hardKeys.map(_.foreignCol) :+ soft.foreignCol
    // Time resampling (§4): align the foreign key to the base key's
    // granularity when the foreign side is finer; either way the foreign
    // side ends up unique on its keys.
    val foreign = (baseGran, prep.granularity) match {
      case (Some(bg), Some(fg)) if fg < bg && method != SoftJoinMethod.HardUnmodified =>
        val truncated = prep.foreign.withColumn(
          soft.foreignCol,
          (floor(col(soft.foreignCol).cast(DoubleType) / bg) * bg).cast(DoubleType))
        aggregateByKeys(truncated, fKeys)
      case _ =>
        if (prep.duplicated) aggregateByKeys(prep.foreign, fKeys) else prep.foreign
    }

    method match {
      case SoftJoinMethod.HardUnmodified | SoftJoinMethod.HardWithResampling =>
        hardJoin(left, foreign, hardKeys :+ soft, prep.payload)
      case nn =>
        asOfJoin(left, foreign, hardKeys, soft, prep.payload,
                 twoWay = nn == SoftJoinMethod.TwoWayNearestNeighbour, tolerance, seed)
    }
  }

  /** Union-and-window as-of join. For every base row we recover the
    * bracketing foreign rows (largest foreign key ≤ x and smallest ≥ x)
    * and either pick the nearest (NN) or linearly interpolate (two-way NN,
    * with x = λ·y_low + (1−λ)·y_high ⇒ λ = (y_high−x)/(y_high−y_low)).
    * Categorical payloads are chosen uniformly at random between the two
    * bracketing rows, per §4.
    */
  private def asOfJoin(left: DataFrame, foreign: DataFrame,
                       hardKeys: Seq[KeyPair], soft: KeyPair,
                       payload: Seq[String], twoWay: Boolean,
                       tolerance: Option[Double], seed: Long): DataFrame = {
    val numeric = foreign.schema.fields.collect { case StructField(n, _: NumericType, _, _) => n }.toSet

    val leftCols = left.columns.toSeq
    // Shared schema: marker, hard keys, soft key (double), left payloads, foreign payloads.
    val bSide = left
      .withColumn("__isbase", lit(1))
      .withColumn("__k", col(soft.baseCol).cast(DoubleType))
    val bAligned = payload.foldLeft(bSide)((d, c) => d.withColumn(c, lit(null).cast(foreign.schema(c).dataType)))

    val fSide0 = foreign
      .withColumn("__isbase", lit(0))
      .withColumn("__k", col(soft.foreignCol).cast(DoubleType))
    // Rename foreign hard-key cols to the base names so the union lines up.
    val fSide1 = hardKeys.foldLeft(fSide0)((d, k) =>
      if (k.foreignCol == k.baseCol) d else d.withColumnRenamed(k.foreignCol, k.baseCol))
    val fAligned = leftCols.filterNot(c => hardKeys.exists(_.baseCol == c)).foldLeft(fSide1) {
      (d, c) => d.withColumn(c, lit(null).cast(left.schema(c).dataType))
    }

    val unionCols = (Seq("__isbase", "__k") ++ hardKeys.map(_.baseCol) ++
      leftCols.filterNot(c => hardKeys.exists(_.baseCol == c)) ++ payload).distinct
    val u = bAligned.select(unionCols.map(col): _*)
      .unionByName(fAligned.select(unionCols.map(col): _*))

    val part = hardKeys.map(k => col(k.baseCol))
    // Foreign rows sort before base rows at equal keys, so an exact match
    // is visible as the "previous" row with distance 0.
    val ord  = Seq(col("__k").asc, col("__isbase").asc)
    val wPrev = (if (part.nonEmpty) Window.partitionBy(part: _*) else Window.partitionBy())
      .orderBy(ord: _*).rowsBetween(Window.unboundedPreceding, Window.currentRow)
    val wNext = (if (part.nonEmpty) Window.partitionBy(part: _*) else Window.partitionBy())
      .orderBy(col("__k").desc, col("__isbase").asc)
      .rowsBetween(Window.unboundedPreceding, Window.currentRow)

    def fOnly(c: Column): Column = when(col("__isbase") === 0, c)

    var d = u
      .withColumn("__kprev", last(fOnly(col("__k")), ignoreNulls = true).over(wPrev))
      .withColumn("__knext", last(fOnly(col("__k")), ignoreNulls = true).over(wNext))
    for (p <- payload) {
      d = d.withColumn(s"__prev_$p", last(fOnly(col(p)), ignoreNulls = true).over(wPrev))
           .withColumn(s"__next_$p", last(fOnly(col(p)), ignoreNulls = true).over(wNext))
    }
    d = d.filter(col("__isbase") === 1)

    val x     = col("__k")
    val dPrev = when(col("__kprev").isNotNull, abs(x - col("__kprev")))
    val dNext = when(col("__knext").isNotNull, abs(x - col("__knext")))
    val withinTol: Column => Column = dist =>
      tolerance.map(t => dist <= lit(t)).getOrElse(lit(true))

    val out = payload.foldLeft(d) { (dd, p) =>
      val prevV = col(s"__prev_$p"); val nextV = col(s"__next_$p")
      val value: Column =
        if (!twoWay) {
          // NN: closest of the bracketing rows, nulls beyond tolerance.
          val pickPrev = col("__knext").isNull ||
            (col("__kprev").isNotNull && dPrev <= dNext)
          when(pickPrev && col("__kprev").isNotNull && withinTol(dPrev), prevV)
            .when(!pickPrev && col("__knext").isNotNull && withinTol(dNext), nextV)
        } else {
          val lam = when(col("__knext") === col("__kprev"), lit(1.0))
            .otherwise((col("__knext") - x) / (col("__knext") - col("__kprev")))
          val both = col("__kprev").isNotNull && col("__knext").isNotNull
          if (numeric(p)) {
            when(both, lam * prevV + (lit(1.0) - lam) * nextV)
              .when(col("__kprev").isNotNull && withinTol(dPrev), prevV)
              .when(col("__knext").isNotNull && withinTol(dNext), nextV)
          } else {
            // Categorical: uniform pick between the bracketing rows (§4).
            when(both, when(rand(seed) < 0.5, prevV).otherwise(nextV))
              .when(col("__kprev").isNotNull && withinTol(dPrev), prevV)
              .when(col("__knext").isNotNull && withinTol(dNext), nextV)
          }
        }
      dd.withColumn(p, value)
    }
    out.select((leftCols ++ payload).map(col): _*)
  }
}
