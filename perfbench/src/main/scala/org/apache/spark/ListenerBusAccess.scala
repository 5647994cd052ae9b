package org.apache.spark

/** The benchmark's one reach into Spark internals: block until every
  * listener event posted so far has been delivered, so per-phase counters
  * are complete when a pass is read out.
  */
object ListenerBusAccess {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
