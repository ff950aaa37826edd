package org.apache.spark.perfbench

import org.apache.spark.SparkContext

/** Access to Spark's listener bus, which is internal to Spark. Draining it
  * before reading listener counters makes job and task counts exact: the
  * bus delivers events asynchronously, so a counter read right after an
  * action may miss that action's last events.
  */
object ListenerBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
