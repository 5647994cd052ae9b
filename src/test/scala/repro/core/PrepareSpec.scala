package repro.core

import org.apache.spark.JobCounter
import org.apache.spark.sql.functions._
import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalacheck.rng.Seed

import repro.{Oracle, SparkSpec}
import repro.data.SynthWorlds
import repro.fs.FeatureSelectors

/** `JoinExec.prepare` computes each per-candidate fact once: checked
  * against the reference definitions and DuckDB on random key layouts, and
  * against a job count for the joins that read the facts.
  */
object PrepareSpec {
  type Rows = Seq[(Option[Long], Option[Double], Double)]

  /** A base table (k, t) and a foreign table (fk, ft, v) joined on a hard
    * key, a soft key, or both.
    */
  final case class Layout(hard: Boolean, soft: Boolean, base: Rows, foreign: Rows) {
    def keys: Seq[KeyPair] =
      (if (hard) Seq(KeyPair("k", "fk", KeyKind.Hard)) else Nil) ++
        (if (soft) Seq(KeyPair("t", "ft", KeyKind.Soft)) else Nil)
  }
}

class PrepareSpec extends SparkSpec {
  import PrepareSpec._
  import spark.implicits._

  private def rows(maxKey: Long, step: Double, n: Int): Gen[Rows] = Gen.listOfN(n, for {
    k <- Gen.frequency(1 -> Gen.const(None), 5 -> Gen.choose(0L, maxKey).map(Some(_)))
    t <- Gen.frequency(1 -> Gen.const(None), 5 -> Gen.choose(0, 6).map(i => Some(i * step)))
    v <- Gen.choose(-1.0, 1.0)
  } yield (k, t, v))

  // Base keys 0..6 against foreign keys 0..4 (or 3..7 after the shift):
  // both sides hold keys the other lacks.
  private val layouts: Gen[Layout] = for {
    (hard, soft) <- Gen.oneOf((true, false), (false, true), (true, true))
    step <- Gen.oneOf(86400.0, 3600.0, 60.0, 1.0, 0.5)
    base <- Gen.choose(1, 10).flatMap(rows(6, step, _))
    nF <- Gen.frequency(1 -> Gen.const(0), 5 -> Gen.choose(1, 12))
    shift <- Gen.oneOf(0L, 3L)
    foreign <- rows(4, step / 2, nF).map(_.map { case (k, t, v) => (k.map(_ + shift), t, v) })
  } yield Layout(hard, soft, base, foreign)

  /** Plan the layout's candidate and compare every prepared fact, the
    * intersection score and the tuple ratio with their definitions.
    */
  private def checkLayout(l: Layout): Unit = {
    val base = l.base.toDF("k", "t", "b")
    val f = l.foreign.toDF("fk", "ft", "v")
    val planned = JoinPlan.plan(base, Seq(CandidateJoin("c", f, l.keys))).head
    val p = planned.prepared
    val keyCols = l.keys.map(k => col(k.foreignCol))

    val matched =
      if (l.hard) base.select("k").distinct()
        .join(f.select(col("fk").as("k")).distinct(), Seq("k"), "left_semi").count()
      else 0L
    val distinctBase = base.select("k").distinct().count()
    val distinctKeys = f.select(keyCols: _*).distinct().count()
    assert(p.rows == f.count())
    assert(p.distinctKeys == distinctKeys)
    assert(p.duplicated == (f.groupBy(keyCols: _*).count().filter(col("count") > 1).count() > 0))
    assert(p.granularity == (if (l.soft) JoinExec.inferGranularity(f, "ft") else None))
    assert(p.matchedKeys == (if (l.hard) Some(matched) else None))
    assert(planned.score == (if (!l.hard) 1.0 else if (distinctBase == 0) 0.0 else matched.toDouble / distinctBase))
    assert(planned.tupleRatio ==
      (if (distinctKeys == 0) Double.PositiveInfinity else l.base.size.toDouble / distinctKeys))
    assert(p.payload == f.columns.toSeq.filterNot(l.keys.map(_.foreignCol).contains).map("c__" + _))

    val kl = l.keys.map(_.foreignCol).mkString(", ")
    val matchedSql =
      if (l.hard) "(SELECT COUNT(*) FROM (SELECT DISTINCT k FROM b) d WHERE d.k IN (SELECT fk FROM f))"
      else "0"
    Oracle.assertEquivalent(
      Seq((p.rows, p.distinctKeys, if (p.duplicated) 1L else 0L, p.matchedKeys.getOrElse(0L)))
        .toDF("n_rows", "n_keys", "dup", "matched"),
      s"SELECT (SELECT COUNT(*) FROM f) AS n_rows, " +
        s"(SELECT COUNT(*) FROM (SELECT DISTINCT $kl FROM f) x) AS n_keys, " +
        s"(SELECT CAST(COUNT(*) > 0 AS BIGINT) FROM " +
        s"(SELECT $kl FROM f GROUP BY $kl HAVING COUNT(*) > 1) y) AS dup, " +
        s"$matchedSql AS matched",
      "b" -> base, "f" -> f)
  }

  test("prepared facts match their definitions and DuckDB on edge layouts") {
    val day = 86400.0
    val base: Rows = Seq((Some(1L), Some(day), 0.1), (None, None, 0.2), (Some(2L), Some(2 * day), 0.3))
    for ((hard, soft) <- Seq((true, false), (false, true), (true, true))) {
      checkLayout(Layout(hard, soft, base, Nil))                                  // empty foreign table
      checkLayout(Layout(hard, soft, base, Seq((Some(9L), Some(3600.0), 1.0))))   // no key in common
      checkLayout(Layout(hard, soft, base,                                        // null and duplicated keys
        Seq((Some(1L), Some(day), 1.0), (Some(1L), Some(day), 2.0), (None, None, 3.0), (None, None, 4.0))))
    }
  }

  test("prepared facts match their definitions and DuckDB on random key layouts") {
    val params = SCTest.Parameters.default.withMinSuccessfulTests(15)
      .withInitialSeed(Seed(20200517L))
    val res = SCTest.check(params, Prop.forAll(layouts) { l => checkLayout(l); true })
    assert(res.passed, res.status.toString)
  }

  test("joining a prepared candidate launches no Spark job") {
    val day = 86400.0
    val base = Seq((1L, 1L, day * 10), (2L, 2L, day * 11)).toDF("id", "g", "ts")
    def hourly = Seq((1L, day * 10, 1.0), (1L, day * 10 + 3600, 3.0), (2L, day * 11, 5.0)).toDF("g", "ts", "v")
    val dup = Seq((1L, 1.0), (1L, 2.0)).toDF("g", "w")
    val preps = Seq(
      JoinExec.prepare(CandidateJoin("h", dup, Seq(KeyPair("g", "g", KeyKind.Hard)))),
      JoinExec.prepare(CandidateJoin("s", hourly, Seq(KeyPair("ts", "ts", KeyKind.Soft)))),
      JoinExec.prepare(CandidateJoin("m", hourly,
        Seq(KeyPair("g", "g", KeyKind.Hard), KeyPair("ts", "ts", KeyKind.Soft)))))
    val grans = JoinExec.baseGranularities(base, preps)
    assert(grans == Map("ts" -> day))
    for (m <- Seq(SoftJoinMethod.NearestNeighbour, SoftJoinMethod.TwoWayNearestNeighbour,
                  SoftJoinMethod.HardWithResampling, SoftJoinMethod.HardUnmodified)) {
      val (joined, jobs) = JobCounter.count(spark.sparkContext) {
        preps.foldLeft(base)((d, p) => JoinExec.join(d, p, grans, m))
      }
      assert(jobs == 0, s"$m: building the joins launched $jobs jobs")
      assert(JobCounter.count(spark.sparkContext)(joined.count())._2 > 0)
    }
  }

  test("a pipeline frees every cache and checkpoint it made") {
    val sc = spark.sparkContext
    def held = sc.getRDDStorageInfo.map(_.id).toSet
    val before = held
    // Ten tables in one batch: the coreset fold and the final fold each
    // checkpoint at their eighth join.
    val w = SynthWorlds.schoolL(spark, nTables = 10)
    val p = new ArdaPipeline(w.task,
      ArdaConfig(coresetSize = 500, grouping = GroupingStrategy.FullMaterialization))
    try {
      p.baseFull
      val batches = p.batchFrames
      assert(batches.size == 1 && batches.head._1.size == 10)
      val prepared = held
      // baseFull, coreset, prepared coreset, the batch frame, the checkpoint.
      assert((prepared -- before).size == 5, s"held ${prepared -- before}")
      val r = p.runSelector(FeatureSelectors.KeepAll)
      assert(r.keptCandidates.size >= 8)
      assert(held == prepared, "the final estimate's checkpoints outlived it")
    } finally p.close()
    assert(held == before)
  }
}
