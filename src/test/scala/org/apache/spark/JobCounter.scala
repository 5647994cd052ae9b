package org.apache.spark

import java.util.concurrent.atomic.AtomicInteger

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}

/** Counts the Spark jobs a block launches. Lives in Spark's package to
  * drain the listener bus, so that every job event has arrived before
  * the count is read.
  */
object JobCounter {
  def count[T](sc: SparkContext)(body: => T): (T, Int) = {
    val jobs = new AtomicInteger
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
    }
    sc.listenerBus.waitUntilEmpty()
    sc.addSparkListener(listener)
    try {
      val r = body
      sc.listenerBus.waitUntilEmpty()
      (r, jobs.get)
    } finally sc.removeSparkListener(listener)
  }
}
