"""Build file of the benchmark: compiles the program's main sources together
with the benchmark's own Scala sources into one class directory.

The compiler and Spark come from the Spark distribution (`$SPARK_HOME/jars`,
or the one whose `spark-submit` is on the PATH; it ships scala-compiler); the
DuckDB JDBC jar used by the program's `Oracle` comes from the local coursier
cache. Nothing is downloaded. Output goes to `.bench_build/` under the repository root and
is rebuilt only when a source file changes.

    python3 perfbench/build.py      # build (or confirm up to date) and print the classpath
"""

import glob
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
OUT = os.path.join(ROOT, ".bench_build")
CLASSES = os.path.join(OUT, "classes")
STAMP = os.path.join(CLASSES, ".sources.sha256")
SCALA_VERSION = "2.13.17"
DUCKDB = "org/duckdb/duckdb_jdbc/1.0.0/duckdb_jdbc-1.0.0.jar"


class BuildError(Exception):
    pass


def spark_jars():
    homes = [os.environ.get("SPARK_HOME", "")]
    for d in os.environ.get("PATH", "").split(os.pathsep):
        if os.path.isfile(os.path.join(d, "spark-submit")):
            homes.append(os.path.dirname(os.path.dirname(os.path.realpath(os.path.join(d, "spark-submit")))))
    for home in filter(None, homes):
        jars = os.path.join(home, "jars")
        if os.path.isfile(os.path.join(jars, f"scala-compiler-{SCALA_VERSION}.jar")):
            return jars
    raise BuildError(f"no Spark distribution with scala-compiler {SCALA_VERSION} (set SPARK_HOME)")


def duckdb_jar():
    caches = [os.environ.get("COURSIER_CACHE", ""), os.path.expanduser("~/.cache/coursier"),
              os.path.expanduser("~/.ivy2"), os.path.expanduser("~/.m2/repository")]
    for cache in filter(None, caches):
        found = glob.glob(os.path.join(cache, "**", DUCKDB), recursive=True)
        if found:
            return sorted(found)[0]
    raise BuildError(f"{DUCKDB} not found in the coursier cache")


def sources():
    main = os.path.join(ROOT, "src", "main", "scala")
    if not os.path.isdir(main):
        raise BuildError(f"no program sources at {main}")
    files = []
    for top in (main, os.path.join(BENCH, "src")):
        files += glob.glob(os.path.join(top, "**", "*.scala"), recursive=True)
    return sorted(files)


def digest(files):
    h = hashlib.sha256(SCALA_VERSION.encode())
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def classpath():
    return os.pathsep.join([CLASSES, os.path.join(spark_jars(), "*"), duckdb_jar()])


def build(log=sys.stderr):
    """Compile if the sources changed; return (classpath, source digest, built)."""
    files = sources()
    sha = digest(files)
    if os.path.isfile(STAMP) and open(STAMP).read().strip() == sha:
        return classpath(), sha, False
    jars = spark_jars()
    compiler = os.pathsep.join(os.path.join(jars, f"scala-{m}-{SCALA_VERSION}.jar")
                               for m in ("compiler", "library", "reflect"))
    tmp = CLASSES + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    print(f"[perfbench] compiling {len(files)} sources", file=log, flush=True)
    cmd = ["java", "-XX:-UsePerfData", "-Xss8m", "-Xmx2g", "-cp", compiler, "scala.tools.nsc.Main",
           "-nowarn", "-usejavacp:false",
           "-classpath", os.pathsep.join([os.path.join(jars, "*"), duckdb_jar()]),
           "-d", tmp] + files
    done = subprocess.run(cmd, stdout=log, stderr=log)
    if done.returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        raise BuildError(f"scalac exited with {done.returncode}")
    with open(os.path.join(tmp, ".sources.sha256"), "w") as fh:
        fh.write(sha + "\n")
    shutil.rmtree(CLASSES, ignore_errors=True)
    os.rename(tmp, CLASSES)
    return classpath(), sha, True


if __name__ == "__main__":
    try:
        print(build()[0])
    except BuildError as e:
        print(f"[perfbench] build failed: {e}", file=sys.stderr)
        sys.exit(2)
