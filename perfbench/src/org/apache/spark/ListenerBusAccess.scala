package org.apache.spark

/** The listener bus delivers events asynchronously; counters read before it
  * is empty miss the last tasks. `listenerBus` is package-private, hence
  * this accessor in Spark's package.
  */
object ListenerBusAccess {
  def waitUntilEmpty(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
