#![warn(missing_docs)]

//! Price catalogs and money arithmetic for the Astra reproduction.
//!
//! The paper (Sec. III-B) bills a serverless MapReduce job along four axes:
//! S3 request cost, S3 storage cost, Lambda invocation cost and Lambda
//! runtime cost. This crate provides the exact constants the paper quotes
//! and an integer [`Money`] type (nano-dollars) so that cost accounting in
//! the simulator is exact and associative — summing millions of per-request
//! charges in `f64` would drift.
//!
//! All catalogs are plain data: the analytical model (`astra-model`), the
//! event simulator (`astra-faas`) and the EMR baseline all consume the same
//! [`PriceCatalog`], which is what makes the cost comparisons in Fig. 7–9
//! internally consistent.

pub mod catalog;
pub mod lambda;
pub mod money;
pub mod s3;
pub mod vm;

pub use catalog::PriceCatalog;
pub use lambda::{BillingCursor, LambdaPricing};
pub use money::Money;
pub use s3::S3Pricing;
pub use vm::{VmPricing, M3_XLARGE};
