package perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import java.util.concurrent.atomic.AtomicLong
import javax.management.{Notification, NotificationEmitter, NotificationListener}
import javax.management.openmbean.CompositeData
import scala.collection.mutable
import scala.jdk.CollectionConverters._

import com.sun.management.GarbageCollectionNotificationInfo
import org.apache.spark.ListenerBusAccess
import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession

/** Spark work counted for one phase of one pass. */
final case class PhaseCounters(
    var jobs: Int = 0,
    var stages: Int = 0,
    var tasks: Long = 0,
    var taskMs: Long = 0,
    var shuffleBytes: Long = 0,
)

/** One recorded span: a phase of a pass, or the pass itself (`parent`
  * None). Spans of one pass share `pass`.
  */
final case class Span(pass: Int, name: String, parent: Option[String],
                      startNs: Long, endNs: Long, gcMs: Long) {
  def wallS: Double = (endNs - startNs) / 1e9
}

/** Per-phase Spark counters and spans, recorded from outside the program.
  *
  * Every job is tagged with the current phase through a Spark local
  * property; the listener attributes each stage to the phase of the job
  * that submitted it, so late-arriving listener events still land in the
  * right phase. Spans are kept in memory and read out after the run. The
  * time spent in the trace's own bookkeeping is summed as its overhead.
  */
final class PhaseTrace(spark: SparkSession) extends SparkListener {
  private val Key = "perfbench.phase"
  private val sc = spark.sparkContext
  private val stagePhase = mutable.Map.empty[Int, String]
  private val counters = mutable.Map.empty[String, PhaseCounters]
  val spans = mutable.ArrayBuffer.empty[Span]
  @volatile private var selfNs = 0L

  sc.addSparkListener(this)

  /** Seconds spent in the trace's own code (listener callbacks, span
    * bookkeeping and draining the listener bus).
    */
  def overheadS: Double = selfNs / 1e9

  private def timed[A](body: => A): A = {
    val t0 = System.nanoTime()
    try body finally synchronized { selfNs += System.nanoTime() - t0 }
  }

  override def onJobStart(e: SparkListenerJobStart): Unit = timed(synchronized {
    Option(e.properties).flatMap(p => Option(p.getProperty(Key))).foreach { ph =>
      counters.getOrElseUpdate(ph, PhaseCounters()).jobs += 1
      e.stageIds.foreach(stagePhase(_) = ph)
    }
  })

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = timed(synchronized {
    stagePhase.get(e.stageInfo.stageId).foreach { ph =>
      val c = counters.getOrElseUpdate(ph, PhaseCounters())
      val m = e.stageInfo.taskMetrics
      c.stages += 1
      c.tasks += e.stageInfo.numTasks
      if (m != null) {
        c.taskMs += m.executorRunTime
        c.shuffleBytes += m.shuffleWriteMetrics.bytesWritten
      }
    }
  })

  private def gcMs: Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum

  /** Run `body` as phase `name` of pass `pass`: tag its jobs and record a
    * span under `parent`. A nested phase takes its jobs from its parent.
    */
  def phase[A](pass: Int, name: String, parent: String = "pass")(body: => A): A = {
    val (prev, g0, t0) = timed {
      val prev = sc.getLocalProperty(Key)
      sc.setLocalProperty(Key, s"$pass/$name")
      (prev, gcMs, System.nanoTime())
    }
    try body
    finally timed {
      spans += Span(pass, name, Some(parent), t0, System.nanoTime(), gcMs - g0)
      sc.setLocalProperty(Key, prev)
    }
  }

  /** Record the parent span of a whole pass. */
  def pass[A](pass: Int)(body: => A): A = {
    val (g0, t0) = timed((gcMs, System.nanoTime()))
    try body
    finally timed(spans += Span(pass, "pass", None, t0, System.nanoTime(), gcMs - g0))
  }

  /** Counters of one phase of one pass; drains the listener bus first. */
  def counters(pass: Int, name: String): PhaseCounters = {
    timed(ListenerBusAccess.drain(sc))
    synchronized(counters.getOrElse(s"$pass/$name", PhaseCounters()).copy())
  }
}

/** Largest heap occupancy seen right after a garbage collection: the live
  * set (plus not-yet-collected old objects), which depends less on when
  * collections happen than the raw peak of used heap does.
  */
final class HeapWatch extends NotificationListener {
  private val heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala
    .filter(_.getType == MemoryType.HEAP).map(_.getName).toSet
  private val emitters = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq
    .collect { case e: NotificationEmitter => e }
  private val peak = new AtomicLong(0L)

  emitters.foreach(_.addNotificationListener(this, null, null))

  def handleNotification(n: Notification, handback: AnyRef): Unit =
    if (n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
      val info = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData])
      val used = info.getGcInfo.getMemoryUsageAfterGc.asScala
        .collect { case (pool, u) if heapPools(pool) => u.getUsed }.sum
      peak.accumulateAndGet(used, math.max(_, _))
    }

  def reset(): Unit = peak.set(0L)
  def peakMb: Double = peak.get / 1048576.0
  def close(): Unit = emitters.foreach(e => e.removeNotificationListener(this))
}
