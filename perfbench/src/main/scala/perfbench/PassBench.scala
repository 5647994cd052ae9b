package perfbench

import java.io.File
import java.lang.management.ManagementFactory
import scala.collection.mutable
import scala.io.Source

import com.fasterxml.jackson.databind.ObjectMapper
import com.sun.management.OperatingSystemMXBean
import com.fasterxml.jackson.module.scala.DefaultScalaModule
import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.core._
import repro.exp.Harness
import repro.fs.FeatureSelector

/** Closed-loop benchmark of one ARDA pass (`new ArdaPipeline` →
  * `runSelector` → `close`): one client runs passes back to back in one
  * JVM over a synthetic world made from the world seed. The first pass of
  * a run is the first in its JVM, as for a user who submits one ARDA job.
  *
  * Prints one `RESULT {json}` line with every metric it computed;
  * `run.py` keeps the ones `BENCHMARK.json` names. See README.md.
  */
object PassBench {

  /** The seven phases of a pass, in the order a traced pass forces them. */
  val Phases: Seq[String] = Seq("prepare", "baseline", "coreset", "plan", "join_prep", "select", "final")

  /** Fixed settings; results depend on them, so every result records them. */
  val Cores: Int = Runtime.getRuntime.availableProcessors
  val ShufflePartitions = 4
  val SetupReps = 3

  final case class Args(
      workload: String = "",
      seed: Option[Long] = None,
      seconds: Double = 0,
      trace: Boolean = false,
      selfCheck: Boolean = false,
      localDir: String = "",
      sourceId: String = "unknown",
  )

  def parse(a: List[String], acc: Args = Args()): Args = a match {
    case Nil                     => acc
    case "--workload" :: v :: t  => parse(t, acc.copy(workload = v))
    case "--seed" :: v :: t      => parse(t, acc.copy(seed = Some(v.toLong)))
    case "--seconds" :: v :: t   => parse(t, acc.copy(seconds = v.toDouble))
    case "--trace" :: v :: t     => parse(t, acc.copy(trace = v == "1"))
    case "--self-check" :: t     => parse(t, acc.copy(selfCheck = true, trace = true))
    case "--local-dir" :: v :: t => parse(t, acc.copy(localDir = v))
    case "--source-id" :: v :: t => parse(t, acc.copy(sourceId = v))
    case other :: _              => throw new IllegalArgumentException(s"unknown argument '$other'")
  }

  /** Wraps the pass's real selector: counts calls and offered features,
    * and (traced) runs each call as the `select` phase nested in `final`.
    */
  final class CountingSelector(inner: FeatureSelector, trace: Option[(PhaseTrace, Int)])
      extends FeatureSelector {
    val name: String = inner.name
    override def supports(task: TaskKind): Boolean = inner.supports(task)
    var calls = 0
    var featuresIn = 0
    val offered = mutable.Set.empty[String]
    def select(df: DataFrame, features: Seq[String], target: String,
               task: TaskKind, seed: Long): Seq[String] = {
      calls += 1; featuresIn += features.size; offered ++= features
      trace match {
        case Some((t, pass)) =>
          t.phase(pass, "select", parent = "final")(inner.select(df, features, target, task, seed))
        case None => inner.select(df, features, target, task, seed)
      }
    }
  }

  /** What one pass returned, plus the plan facts the gate checks against. */
  final case class Pass(
      result: Arda.ArdaResult,
      wallS: Double,
      cpuS: Double,
      stealS: Double,
      cacheMb: Double,
      peakHeapMb: Double,
      offered: Set[String],
      selectCalls: Int,
      selectFeaturesIn: Int,
      filtered: Seq[String],
      joins: Int,
      joinFeatures: Int,
  )

  def main(argv: Array[String]): Unit = {
    val args = parse(argv.toList)
    val w = Workloads.byName(args.workload)
    val s0 = System.nanoTime()
    val spark = session(args)
    val sessionS = (System.nanoTime() - s0) / 1e9
    val json = new ObjectMapper().registerModule(DefaultScalaModule)
    try println("RESULT " + json.writeValueAsString(new Runner(spark, args, w, sessionS).run()))
    finally spark.stop()
  }

  def session(args: Args): SparkSession = {
    val b = SparkSession.builder
      .master(s"local[$Cores]")
      .appName("arda-perfbench")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toString)
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
    (if (args.localDir.nonEmpty) b.config("spark.local.dir", args.localDir) else b).getOrCreate()
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  /** One run: set-up, then passes until `seconds` have passed (at least
    * `minPasses`).
    */
  final class Runner(spark: SparkSession, args: Args, w: Workload, sessionS: Double) {
    private val cfg = w.cfg
    private val worldSeed = args.seed.getOrElse(w.defaultSeed)
    private val trace = new PhaseTrace(spark)
    private val heap = new HeapWatch

    /** Generate and materialise the world `SetupReps` times; keep the last. */
    private val (world, setupS) = {
      var inputs = Seq.empty[DataFrame]
      val reps = (1 to SetupReps).map { _ =>
        inputs.foreach(_.unpersist(blocking = true))
        val t0 = System.nanoTime()
        val (wd, in) = Workloads.materialise(w, w.world(spark, worldSeed))
        inputs = in
        (wd, (System.nanoTime() - t0) / 1e9)
      }
      (reps.last._1, reps.map(_._2))
    }
    private val task = world.task

    private def runPass(id: Int): Pass = {
      val traced = args.trace
      val sel = new CountingSelector(w.selector, if (traced) Some(trace -> id) else None)
      val p = new ArdaPipeline(task, cfg)
      val inputsMb = cachedMb
      var passCacheMb = 0.0
      def body(): Arda.ArdaResult =
        try {
          val r =
            if (traced) {
              trace.phase(id, "prepare")(p.baseFull)
              trace.phase(id, "baseline")(p.baselineScore)
              trace.phase(id, "coreset")(p.coresetPrepared)
              trace.phase(id, "plan")(p.batches)
              trace.phase(id, "join_prep")(p.batchFrames)
              trace.phase(id, "final")(p.runSelector(sel))
            } else p.runSelector(sel)
          // The pipeline only adds to the cache until close(), so this is
          // its peak.
          passCacheMb = cachedMb - inputsMb
          r
        } finally p.close()
      heap.reset()
      val (c0, st0, t0) = (cpuS, stealS, System.nanoTime())
      val r = if (traced) trace.pass(id)(body()) else body()
      val wall = (System.nanoTime() - t0) / 1e9
      Pass(r, wall, cpuS - c0, stealS - st0, passCacheMb, heap.peakMb, sel.offered.toSet, sel.calls,
           sel.featuresIn, p.filtered.map(_.cand.name), p.batches.map(_.size).sum,
           p.batchFrames.map(_._3.size).sum)
    }

    private val os = ManagementFactory.getOperatingSystemMXBean.asInstanceOf[OperatingSystemMXBean]

    /** CPU seconds used by this JVM, all threads (JIT and GC included). */
    private def cpuS: Double = os.getProcessCpuTime / 1e9

    /** CPU seconds the hypervisor gave to others while this guest waited
      * (all CPUs; the `steal` column of Linux's /proc/stat, 0 elsewhere).
      */
    private def stealS: Double = {
      val f = new File("/proc/stat")
      if (!f.exists) 0.0
      else {
        val src = Source.fromFile(f)
        try src.getLines().next().split("\\s+")(8).toDouble / 100 finally src.close()
      }
    }

    /** Megabytes of Spark-cached blocks (memory and disk). */
    private def cachedMb: Double =
      spark.sparkContext.getRDDStorageInfo.map(i => i.memSize + i.diskSize).sum / 1048576.0

    /** Holdout error of a score: MAE (regression) or 1 − accuracy. */
    private def error(score: Double): Double = task.task match {
      case TaskKind.Regression     => -score
      case TaskKind.Classification => 1 - score
    }

    /** The correctness gate: a failed check fails the pass. */
    private def check(ps: Pass, first: Option[Pass]): Seq[String] = {
      val r = ps.result
      Seq(
        (r.augmentedScore > r.baselineScore) ->
          s"aug score ${r.augmentedScore} is not above baseline ${r.baselineScore}",
        r.selected.forall(ps.offered) -> "selected features outside those offered",
        r.keptCandidates.forall(ps.filtered.contains) -> "kept candidates outside the TR-filtered plan",
        first.forall(f => f.result.selected == r.selected && f.result.augmentedScore == r.augmentedScore) ->
          "selected features or aug score differ from the run's first pass",
      ).collect { case (false, msg) => msg }
    }

    def run(): Map[String, Any] = {
      val passes = mutable.ArrayBuffer.empty[Pass]
      val errors = mutable.ArrayBuffer.empty[String]
      var failed = 0
      val t0 = System.nanoTime()
      val minPasses = if (args.selfCheck) 2 else 1
      while (passes.size < minPasses || (System.nanoTime() - t0) / 1e9 < args.seconds) {
        val ps = runPass(passes.size)
        val errs = check(ps, passes.headOption)
        if (errs.nonEmpty) { failed += 1; errors ++= errs.map(e => s"pass ${passes.size}: $e") }
        passes += ps
      }
      heap.close()

      val first = passes.head
      val r = first.result
      val signal = world.signalTables
      val kept = r.keptCandidates
      val keptSignal = kept.count(signal)
      val metrics = mutable.LinkedHashMap[String, (Double, String)](
        "setup_s"               -> (median(setupS), "s"),
        "arda_s"                -> (first.wallS, "s"),
        "cache_mb"              -> (first.cacheMb, "MB"),
        "pass.cpu_s"            -> (first.cpuS, "s"),
        "pass.steal_s"          -> (first.stealS, "s"),
        "signal_recall"         -> (keptSignal.toDouble / signal.size, "ratio"),
        "final.aug_error"       -> (error(r.augmentedScore), "error"),
        "final.gain_pct"        -> (Harness.pctChange(task.task, r.augmentedScore, r.baselineScore), "%"),
        "final.table_precision" -> (if (kept.isEmpty) 0.0 else keptSignal.toDouble / kept.size, "ratio"),
        "final.noise_tables"    -> ((kept.size - keptSignal).toDouble, "count"),
        "pass.peak_heap_mb"     -> (first.peakHeapMb, "MB"),
      )
      if (args.trace) metrics ++= perLayer(first)
      val checks = if (args.selfCheck) selfCheck(passes.toSeq) else Nil
      Map(
        "correct"    -> (failed == 0 && checks.isEmpty),
        "attempted"  -> passes.size,
        "failed"     -> failed,
        "metrics"    -> metrics.map { case (k, (v, u)) => k -> Map("value" -> v, "unit" -> u) },
        "errors"     -> (errors ++ checks).toSeq,
        "passes"     -> passes.map(_.wallS).toSeq,
        "spans"      -> trace.spans.map { sp =>
          Map("pass" -> sp.pass, "name" -> sp.name, "parent" -> sp.parent.getOrElse(""),
              "start_s" -> (sp.startNs - t0) / 1e9, "wall_s" -> sp.wallS, "gc_s" -> sp.gcMs / 1e3)
        }.toSeq,
        "provenance" -> provenance(),
      )
    }

    private def provenance(): Map[String, Any] = Map(
      "source_id"           -> args.sourceId,
      "workload"            -> w.name,
      "world_seed"          -> worldSeed,
      "candidates"          -> task.candidates.map(_.name),
      "cfg_seed"            -> cfg.seed,
      "coreset_size"        -> cfg.coresetSize,
      "tr_tau"              -> cfg.trTau.map(_.toString).getOrElse("none"),
      "rifs"                -> w.rifsDescription,
      "nproc"               -> Runtime.getRuntime.availableProcessors,
      "spark_master"        -> spark.sparkContext.master,
      "shuffle_partitions"  -> spark.conf.get("spark.sql.shuffle.partitions"),
      "broadcast_threshold" -> spark.conf.get("spark.sql.autoBroadcastJoinThreshold"),
      "driver_heap_mb"      -> Runtime.getRuntime.maxMemory / 1048576,
      "spark_version"       -> spark.version,
      "java_version"        -> System.getProperty("java.version"),
      "seconds"             -> args.seconds,
      "setup_reps"          -> SetupReps,
      "trace"               -> args.trace,
    )

    /** Phase wall and GC seconds of one traced pass: `final` excludes its
      * nested `select` spans, which are summed into `select`.
      */
    private def phaseSpans(pass: Int): Map[String, (Double, Double)] = {
      val ss = trace.spans.filter(_.pass == pass)
      def sum(n: String) = {
        val xs = ss.filter(_.name == n)
        (xs.map(_.wallS).sum, xs.map(_.gcMs).sum / 1e3)
      }
      val (sel, fin) = (sum("select"), sum("final"))
      Phases.map {
        case "select" => "select" -> sel
        case "final"  => "final" -> (fin._1 - sel._1, fin._2 - sel._2)
        case p        => p -> sum(p)
      }.toMap
    }

    /** Per-layer metrics of the run's first (traced) pass. */
    private def perLayer(first: Pass): Seq[(String, (Double, String))] = {
      val spans = phaseSpans(0)
      val ctr = Phases.map(p => p -> trace.counters(0, p)).toMap
      val r = first.result
      val signal = world.signalTables
      val fromSignal = r.selected.count(f => signal.exists(s => f.startsWith(s + "__")))
      Phases.flatMap { ph =>
        val (wall, gc) = spans(ph)
        val c = ctr(ph)
        Seq(
          s"$ph.wall_s"     -> (wall, "s"),
          s"$ph.jobs"       -> (c.jobs.toDouble, "count"),
          s"$ph.stages"     -> (c.stages.toDouble, "count"),
          s"$ph.tasks"      -> (c.tasks.toDouble, "count"),
          s"$ph.task_s"     -> (c.taskMs / 1e3, "s"),
          s"$ph.util"       -> (if (wall > 0) c.taskMs / 1e3 / (wall * Cores) else 0.0, "ratio"),
          s"$ph.shuffle_mb" -> (c.shuffleBytes / 1048576.0, "MB"),
          s"$ph.gc_s"       -> (gc, "s"),
        )
      } ++ Seq(
        "plan.candidates"         -> (r.nCandidates.toDouble, "count"),
        "plan.after_tr"           -> (r.nCandidatesAfterFilter.toDouble, "count"),
        "plan.batches"            -> (r.nBatches.toDouble, "count"),
        "plan.jobs_per_cand"      -> (ctr("plan").jobs.toDouble / r.nCandidates, "ratio"),
        "join_prep.joins"         -> (first.joins.toDouble, "count"),
        "join_prep.features"      -> (first.joinFeatures.toDouble, "count"),
        "select.calls"            -> (first.selectCalls.toDouble, "count"),
        "select.features_in"      -> (first.selectFeaturesIn.toDouble, "count"),
        "select.features_kept"    -> (r.selected.size.toDouble, "count"),
        "select.signal_precision" -> (if (r.selected.isEmpty) 0.0 else fromSignal.toDouble / r.selected.size, "ratio"),
        "final.tables"            -> (r.keptCandidates.size.toDouble, "count"),
        "final.features"          -> (r.selected.size.toDouble, "count"),
        "pass.wall_s"             -> (first.wallS, "s"),
        "trace.overhead_s"        -> (trace.overheadS, "s"),
        "trace.overhead_pct"      -> (trace.overheadS / first.wallS * 100, "%"),
        "setup.session_s"         -> (sessionS, "s"),
      )
    }

    /** Structural self-check of the trace (no timing bounds). */
    private def selfCheck(passes: Seq[Pass]): Seq[String] = {
      val errs = mutable.ArrayBuffer.empty[String]
      for (i <- passes.indices) {
        val names = trace.spans.filter(_.pass == i).map(_.name).toSet
        Phases.filterNot(names).foreach(p => errs += s"pass $i: phase $p has no span")
        val sum = phaseSpans(i).values.map(_._1).sum
        if (sum > passes(i).wallS) errs += s"pass $i: phase walls $sum s exceed the pass wall ${passes(i).wallS} s"
        for (p <- Seq("plan", "join_prep") if trace.counters(i, p).jobs == 0)
          errs += s"pass $i: phase $p ran no Spark jobs"
      }
      val (a, b) = (passes(0).result, passes(1).result)
      def same(what: String, x: Any, y: Any): Unit =
        if (x != y) errs += s"$what differs between passes 0 and 1: $x vs $y"
      same("aug score", a.augmentedScore, b.augmentedScore)
      same("baseline score", a.baselineScore, b.baselineScore)
      same("selected features", a.selected, b.selected)
      same("kept tables", a.keptCandidates, b.keptCandidates)
      for (p <- Phases) {
        val (ca, cb) = (trace.counters(0, p), trace.counters(1, p))
        same(s"$p jobs", ca.jobs, cb.jobs)
        same(s"$p shuffle bytes", ca.shuffleBytes, cb.shuffleBytes)
      }
      errs.toSeq
    }
  }
}
