#!/usr/bin/env python3
"""Quickstart: contaminated garbage collection in five minutes.

Demonstrates the core mechanism on a toy program:

* objects are tied to the stack frame they're allocated in;
* storing a reference merges the two objects' equilive blocks onto the
  *older* frame (contamination);
* when a frame pops, every block that depends on it is reclaimed — with no
  marking whatsoever;
* `putstatic` pins a block to frame 0 (live forever);
* contamination cannot be undone: pointing away doesn't help.

Run:  python examples/quickstart.py
"""

from repro import CGPolicy, Mutator, Runtime, RuntimeConfig


def banner(text):
    print(f"\n=== {text} ===")


def main():
    runtime = Runtime(
        RuntimeConfig(
            heap_words=1 << 16,
            cg=CGPolicy.paper_default(),
            tracing="marksweep",  # the traditional collector CG assists
        )
    )
    runtime.program.define_class("Node", fields=["next", "value"])
    m = Mutator(runtime)
    cg = runtime.collector

    banner("1. Objects die with their frame")
    with m.frame():
        with m.frame():
            for i in range(5):
                node = m.new("Node")
                m.putfield(node, "value", i)
                m.root(node)
            print("allocated 5 nodes in the inner frame")
        print("inner frame popped ->", cg.stats.objects_popped,
              "objects reclaimed (no marking!)")

        banner("2. Contamination anchors objects to older frames")
        keeper = m.new("Node")
        m.set_local(0, keeper)
        with m.frame():
            young = m.new("Node")
            m.putfield(young, "next", keeper)   # young touches keeper
            m.root(young)
            block = cg.equilive.block_of(young)
            print("young's block now depends on the OUTER frame:",
                  block.frame is m.thread.stack.frames[0])
        print("inner pop reclaimed nothing extra:",
              cg.stats.objects_popped, "total so far")
        young.check_live()  # still alive — conservative, and safe

        banner("3. Statics pin forever; pointing away doesn't unpin")
        finger = m.new("Node")
        m.putstatic("finger", finger)
        finger = m.getstatic("finger")
        with m.frame():
            victim = m.new("Node")
            m.putfield(finger, "next", victim)   # static touches victim
            m.putfield(finger, "next", None)     # ...and points away
            m.root(victim)
        print("victim survived its frame (pinned static):",
              not victim.freed)

    banner("Final accounting")
    census = cg.final_census()
    stats = cg.stats
    print(f"created:   {stats.objects_created}")
    print(f"popped:    {census['popped']} (collected by CG at frame pops)")
    print(f"static:    {census['static']} (live for the program's duration)")
    print(f"unions:    {stats.contaminations}, "
          f"union-find ops: {cg.equilive.finds} finds")
    print(f"traditional GC cycles needed: {runtime.tracing.work.cycles}")
    runtime.check_heap_accounting()
    runtime.check_cg_invariants()
    print("heap accounting and equilive invariants: OK")


if __name__ == "__main__":
    main()
