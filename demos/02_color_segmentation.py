"""Pick garment hues out of a frame with HSV band masks.

Paints four colored rectangles plus a dull jacket on gray, runs each default
color band over the frame, and prints what every band caught.  Ends with the
luma view of one band mask and its threshold, which the detector's
band_masks applies in the same pass as the band test.
"""

import numpy as np

from garmwatch import Frame, color_mask, masked_to_gray, rgb_to_hsv
from garmwatch.colorseg import DEFAULT_BANDS

W, H = 64, 48
frame = np.full((H, W, 3), 96, dtype=np.uint8)
frame[4:14, 4:16] = (220, 30, 30)      # red
frame[4:14, 24:36] = (255, 220, 0)     # yellow
frame[20:30, 4:16] = (30, 200, 30)     # green
frame[20:30, 24:36] = (40, 40, 230)    # blue
frame[36:46, 4:16] = (110, 100, 95)    # dull gray-brown jacket
frame = Frame(0, frame)

print("hue/saturation/value of each paint:")
for name, rgb in [("red", (220, 30, 30)), ("yellow", (255, 220, 0)),
                  ("green", (30, 200, 30)), ("blue", (40, 40, 230)),
                  ("jacket", (110, 100, 95)), ("background", (96, 96, 96))]:
    h, s, v = rgb_to_hsv(rgb)
    print(f"  {name:10s} {str(rgb):15s} h={h:5.1f}  s={s:.2f}  v={v:.2f}")

print("\npixels caught by each default band (every rectangle is 120 px):")
for band in DEFAULT_BANDS:
    mask = color_mask(frame, band)
    ranges = " u ".join(f"[{lo:g},{hi:g})" for lo, hi in band.hue_ranges)
    print(f"  {band.label:8s} hue {ranges:22s} -> {int(mask.sum()):4d} px")
# the jacket and the background fail the saturation floor (s >= 0.30), so
# no band picks them up even though the jacket's hue lands in the red range

red_mask = color_mask(frame, DEFAULT_BANDS[0])
gray = masked_to_gray(frame, red_mask)
print(f"\ngray view of the red mask: {int((gray > 0).sum())} nonzero px, "
      f"peak value {int(gray.max())} (rounded Rec. 601 luma of pure paint)")
print("rows 4..13 columns 4..15 hold the red rectangle:")
for row in gray[2:16:3]:
    print("   ", "".join(".#"[int(v > 40)] for v in row[:40]))
