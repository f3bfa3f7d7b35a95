#!/usr/bin/env python3
"""Emit the bundled-parameter soliton gallery: per-time CSV slices plus
gnuplot scripts for the surface and slice views.

Usage: python scripts/soliton_gallery.py [outdir]
Render afterwards with: gnuplot plot_slices.gp plot_surface.gp
"""

import json
import sys
import tempfile
from pathlib import Path

from hirotalab import cli


def main() -> int:
    outdir = sys.argv[1] if len(sys.argv) > 1 else "out/gallery"
    doc = json.loads(
        (Path(cli.__file__).parent / "data" / "default_config.json").read_text()
    )
    doc["emit_plots"] = True
    doc["times"] = [-15.0, -7.5, 0.0, 7.5, 15.0]
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "gallery_config.json"
        cfg_path.write_text(json.dumps(doc))
        code = cli.main(["sample", "--config", str(cfg_path), "--out", outdir])
    if code == 0:
        print(f"gallery written to {outdir}; render with gnuplot")
    return code


if __name__ == "__main__":
    sys.exit(main())
