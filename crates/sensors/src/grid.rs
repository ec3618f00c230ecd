//! Grid rasterization and noise primitives shared by all sensor models.

use ecofusion_scene::{GtBox, Scene};
use ecofusion_tensor::rng::Rng;
use ecofusion_tensor::tensor::Tensor;

/// Creates an empty `(1, 1, grid, grid)` observation.
pub fn empty_grid(grid: usize) -> Tensor {
    Tensor::zeros(&[1, 1, grid, grid])
}

/// Splats a box into the grid at `intensity`, with per-cell multiplicative
/// jitter of `±jitter`. Intensities accumulate additively and the caller is
/// expected to clamp at the end of rendering.
pub fn splat_box(t: &mut Tensor, b: &GtBox, intensity: f32, jitter: f32, rng: &mut Rng) {
    let grid = t.shape()[3];
    let x1 = (b.x1.floor().max(0.0)) as usize;
    let y1 = (b.y1.floor().max(0.0)) as usize;
    let x2 = (b.x2.ceil() as usize).min(grid);
    let y2 = (b.y2.ceil() as usize).min(grid);
    for y in y1..y2 {
        for x in x1..x2 {
            let j = 1.0 + jitter * rng.uniform(-1.0, 1.0) as f32;
            let v = t.get4(0, 0, y, x) + intensity * j;
            t.set4(0, 0, y, x, v);
        }
    }
}

/// Adds i.i.d. Gaussian noise of the given standard deviation.
pub fn add_gaussian_noise(t: &mut Tensor, sigma: f32, rng: &mut Rng) {
    if sigma <= 0.0 {
        return;
    }
    for v in t.data_mut() {
        *v += rng.normal(0.0, sigma as f64) as f32;
    }
}

/// Adds salt noise: each cell independently spikes to `amplitude` with
/// probability `rate` (lidar speckle in precipitation).
pub fn add_salt_noise(t: &mut Tensor, rate: f64, amplitude: f32, rng: &mut Rng) {
    if rate <= 0.0 {
        return;
    }
    for v in t.data_mut() {
        if rng.chance(rate) {
            *v += amplitude * rng.uniform(0.5, 1.0) as f32;
        }
    }
}

/// Adds `count` square clutter blobs of side `size` and the given amplitude
/// (radar ghosts / ground returns).
pub fn add_blobs(t: &mut Tensor, count: usize, size: usize, amplitude: f32, rng: &mut Rng) {
    let grid = t.shape()[3];
    if grid <= size {
        return;
    }
    for _ in 0..count {
        let cx = rng.uniform_usize(0, grid - size);
        let cy = rng.uniform_usize(0, grid - size);
        let a = amplitude * rng.uniform(0.5, 1.0) as f32;
        for y in cy..cy + size {
            for x in cx..cx + size {
                let v = t.get4(0, 0, y, x) + a;
                t.set4(0, 0, y, x, v);
            }
        }
    }
}

/// Adds `count` vertical streaks (camera rain artefacts).
pub fn add_vertical_streaks(t: &mut Tensor, count: usize, amplitude: f32, rng: &mut Rng) {
    let grid = t.shape()[3];
    for _ in 0..count {
        let x = rng.uniform_usize(0, grid);
        let y0 = rng.uniform_usize(0, grid / 2);
        let len = rng.uniform_usize(grid / 8, grid / 2);
        let a = amplitude * rng.uniform(0.4, 1.0) as f32;
        for y in y0..(y0 + len).min(grid) {
            let v = t.get4(0, 0, y, x) + a;
            t.set4(0, 0, y, x, v);
        }
    }
}

/// Clamps every cell into `[0, hi]`.
pub fn clamp(t: &mut Tensor, hi: f32) {
    for v in t.data_mut() {
        *v = v.clamp(0.0, hi);
    }
}

/// Horizontally blurs the grid with a box filter of half-width `r`
/// (models coarse radar azimuth resolution).
pub fn blur_horizontal(t: &Tensor, r: usize) -> Tensor {
    let grid = t.shape()[3];
    let mut out = Tensor::zeros(t.shape());
    for y in 0..grid {
        for x in 0..grid {
            let lo = x.saturating_sub(r);
            let hi = (x + r + 1).min(grid);
            let mut s = 0.0;
            for xi in lo..hi {
                s += t.get4(0, 0, y, xi);
            }
            out.set4(0, 0, y, x, s / (hi - lo) as f32);
        }
    }
    out
}

/// Per-object occlusion factors for line-of-sight sensors.
///
/// Sorts objects by range; an object whose lateral span is covered at least
/// 60 % by a strictly nearer object gets its return scaled by
/// `occluded_gain`. Radar diffraction makes radar less affected (higher
/// gain); cameras and lidar more.
pub fn occlusion_factors(scene: &Scene, occluded_gain: f32) -> Vec<f32> {
    let n = scene.objects.len();
    let mut factors = vec![1.0f32; n];
    // Index objects sorted by increasing range (y).
    let mut order: Vec<usize> = (0..n).collect();
    // Ascending, NaN last: a total order, so a NaN range cannot panic the sort.
    order.sort_by(|&a, &b| {
        let (ya, yb) = (scene.objects[a].y, scene.objects[b].y);
        ya.is_nan().cmp(&yb.is_nan()).then_with(|| ya.total_cmp(&yb))
    });
    for (rank, &i) in order.iter().enumerate() {
        let oi = &scene.objects[i];
        let (hx_i, _) = oi.half_extents_m();
        let (li, ri) = (oi.x - hx_i, oi.x + hx_i);
        let span = (ri - li).max(1e-6);
        // Check all strictly nearer objects for lateral coverage.
        let mut covered = 0.0;
        for &j in order.iter().take(rank) {
            let oj = &scene.objects[j];
            let (hx_j, _) = oj.half_extents_m();
            let (lj, rj) = (oj.x - hx_j, oj.x + hx_j);
            let overlap = (ri.min(rj) - li.max(lj)).max(0.0);
            covered += overlap;
        }
        if covered / span >= 0.6 {
            factors[i] = occluded_gain;
        }
    }
    factors
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecofusion_scene::{Context, ObjectClass, SceneObject};

    fn gt(x1: f32, y1: f32, x2: f32, y2: f32) -> GtBox {
        GtBox { class_id: 0, x1, y1, x2, y2 }
    }

    #[test]
    fn splat_fills_box_cells() {
        let mut t = empty_grid(8);
        let mut rng = Rng::new(1);
        splat_box(&mut t, &gt(2.0, 2.0, 4.0, 4.0), 1.0, 0.0, &mut rng);
        assert_eq!(t.get4(0, 0, 3, 3), 1.0);
        assert_eq!(t.get4(0, 0, 0, 0), 0.0);
        assert_eq!(t.sum(), 4.0);
    }

    #[test]
    fn splat_clamps_to_grid() {
        let mut t = empty_grid(4);
        let mut rng = Rng::new(2);
        splat_box(&mut t, &gt(-5.0, -5.0, 10.0, 10.0), 1.0, 0.0, &mut rng);
        assert_eq!(t.sum(), 16.0);
    }

    #[test]
    fn gaussian_noise_changes_values() {
        let mut t = empty_grid(16);
        let mut rng = Rng::new(3);
        add_gaussian_noise(&mut t, 0.1, &mut rng);
        assert!(t.norm_sq() > 0.0);
        // Zero sigma is a no-op.
        let mut u = empty_grid(16);
        add_gaussian_noise(&mut u, 0.0, &mut rng);
        assert_eq!(u.sum(), 0.0);
    }

    #[test]
    fn salt_noise_rate_controls_density() {
        let mut t = empty_grid(64);
        let mut rng = Rng::new(4);
        add_salt_noise(&mut t, 0.1, 1.0, &mut rng);
        let nonzero = t.data().iter().filter(|&&v| v > 0.0).count();
        let frac = nonzero as f64 / t.len() as f64;
        assert!((frac - 0.1).abs() < 0.03, "salt fraction {frac}");
    }

    #[test]
    fn clamp_bounds_values() {
        let mut t = empty_grid(4);
        t.data_mut()[0] = -3.0;
        t.data_mut()[1] = 9.0;
        clamp(&mut t, 1.0);
        assert_eq!(t.data()[0], 0.0);
        assert_eq!(t.data()[1], 1.0);
    }

    #[test]
    fn blur_preserves_mass_roughly() {
        let mut t = empty_grid(16);
        t.set4(0, 0, 8, 8, 1.0);
        let b = blur_horizontal(&t, 2);
        assert!((b.sum() - 1.0).abs() < 1e-5);
        // Energy is spread laterally.
        assert!(b.get4(0, 0, 8, 8) < 1.0);
        assert!(b.get4(0, 0, 8, 6) > 0.0);
        assert_eq!(b.get4(0, 0, 7, 8), 0.0);
    }

    #[test]
    fn occlusion_shadows_far_object() {
        let mut scene = Scene::empty(Context::City, 0);
        // Near bus fully covering a far car in the same lane.
        let mut bus = SceneObject::new(ObjectClass::Bus, 0.0, 10.0);
        bus.heading = std::f64::consts::FRAC_PI_2; // broadside: wide lateral span
        scene.objects.push(bus);
        scene.objects.push(SceneObject::new(ObjectClass::Car, 0.0, 30.0));
        let f = occlusion_factors(&scene, 0.4);
        assert_eq!(f[0], 1.0, "near object unoccluded");
        assert_eq!(f[1], 0.4, "far object occluded");
    }

    #[test]
    fn no_occlusion_when_laterally_separated() {
        let mut scene = Scene::empty(Context::City, 0);
        scene.objects.push(SceneObject::new(ObjectClass::Car, -10.0, 10.0));
        scene.objects.push(SceneObject::new(ObjectClass::Car, 10.0, 30.0));
        let f = occlusion_factors(&scene, 0.4);
        assert_eq!(f, vec![1.0, 1.0]);
    }

    use ecofusion_scene::Scene;
}
